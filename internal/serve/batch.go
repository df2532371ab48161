package serve

import (
	"time"

	"radar/internal/obs"
	"radar/internal/tensor"
)

// dispatch is the batching queue: it pulls requests off the intake channel
// and groups them into batches of at most MaxBatch, flushing early when the
// oldest queued request has waited MaxLatency. One dispatcher feeds all
// inference workers; it exits (closing the batch channel) when the intake
// channel is closed by Stop, after flushing whatever was still queued.
func (s *Server) dispatch() {
	defer s.workWG.Done()
	defer close(s.batches)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	var batch []*request
	flush := func() {
		if len(batch) > 0 {
			s.met.batches.Inc()
			s.met.batched.Add(int64(len(batch)))
			s.met.occupancy.Observe(float64(len(batch)))
			s.batches <- batch
			batch = nil
		}
	}
	for {
		if len(batch) == 0 {
			// Idle: block for the first request of the next batch.
			r, ok := <-s.reqs
			if !ok {
				return
			}
			batch = append(batch, r)
			timer.Reset(s.cfg.MaxLatency)
		}
		if len(batch) >= s.cfg.MaxBatch {
			stopTimer(timer)
			flush()
			continue
		}
		select {
		case r, ok := <-s.reqs:
			if !ok {
				stopTimer(timer)
				flush()
				return
			}
			if !sameShape(r.x, batch[0].x) {
				// A shape change (possible only when Config.InputShape is
				// unset) ends the batch: one forward pass has one geometry.
				flush()
				stopTimer(timer)
				timer.Reset(s.cfg.MaxLatency)
			}
			batch = append(batch, r)
		case <-timer.C:
			flush()
		}
	}
}

// sameShape reports whether two inputs can share a forward pass (their
// (C,H,W) geometry matches; a leading batch dim of 1 is ignored).
func sameShape(a, b *tensor.Tensor) bool {
	as, bs := a.Shape, b.Shape
	if len(as) == 4 {
		as = as[1:]
	}
	if len(bs) == 4 {
		bs = bs[1:]
	}
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// stopTimer stops t and drains a pending fire so the next Reset is clean.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// worker runs batches to completion until the batch channel closes.
func (s *Server) worker() {
	defer s.workWG.Done()
	v := &verifier{s: s}
	for batch := range s.batches {
		s.runBatch(batch, v)
	}
}

// runBatch assembles one (N, C, H, W) tensor from the batched requests,
// runs a single engine forward through the worker's verifier (weight
// locking and verified fetch happen inside, per stage) and fans the logit
// rows back out. Requests whose context was cancelled while they waited in
// the queue are dropped here — their submitters have already returned, so
// computing them would be wasted work (a whole batch of cancellations
// skips the forward pass entirely).
func (s *Server) runBatch(batch []*request, v *verifier) {
	start := time.Now() // batch dequeued: queue wait ends here
	live := batch[:0]
	for _, r := range batch {
		if r.ctx != nil && r.ctx.Err() != nil {
			s.met.cancelled.Inc()
			continue
		}
		live = append(live, r)
	}
	batch = live
	if len(batch) == 0 {
		return
	}
	shape := batch[0].x.Shape
	if len(shape) == 4 {
		shape = shape[1:]
	}
	vol := tensor.Volume(shape)
	x := tensor.New(append([]int{len(batch)}, shape...)...)
	for i, r := range batch {
		copy(x.Data[i*vol:(i+1)*vol], r.x.Data)
	}
	assembled := time.Now()
	v.at = assembled.UnixNano()
	out, fetched := s.eng.ForwardFetch(x, v)
	verify := v.flush(fetched)
	k := out.Shape[1]
	now := time.Now()
	forward := now.Sub(assembled) - verify
	for i, r := range batch {
		logits := append([]float32(nil), out.Data[i*k:(i+1)*k]...)
		s.met.requests.Inc()
		s.met.observeLatency(now.Sub(r.enq))
		if r.id != "" {
			s.traces.Add(obs.Trace{
				ID:      r.id,
				Model:   s.name,
				Start:   r.enq,
				TotalMs: float64(now.Sub(r.enq)) / float64(time.Millisecond),
				Stages: []obs.Stage{
					{Name: "queue", Ms: float64(start.Sub(r.enq)) / float64(time.Millisecond)},
					{Name: "batch", Ms: float64(assembled.Sub(start)) / float64(time.Millisecond)},
					{Name: "verify", Ms: float64(verify) / float64(time.Millisecond)},
					{Name: "forward", Ms: float64(forward) / float64(time.Millisecond)},
				},
			})
		}
		r.out <- Result{Class: out.Argmax(i*k, k), Logits: logits}
	}
}
