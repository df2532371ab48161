package serve

import (
	"time"

	"radar/internal/obs"
	"radar/internal/tensor"
)

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

// worker is the batcher and the executor in one: it blocks for the first
// request of a batch, takes whatever is already queued behind it without
// waiting — up to maxBatch, same geometry — and runs the batch. An idle
// worker therefore answers a lone request at once, and batches form exactly
// when requests arrive faster than the workers retire them: the backlog in
// reqs is the batch. A request of another shape (possible only when
// WithInputShape is not set) ends the batch — one forward pass has one
// geometry — and is held as the first of this worker's next one. The worker
// exits once Stop has closed reqs and the queue is drained.
func (s *Server) worker() {
	defer s.workWG.Done()
	v := &verifier{s: s}
	batch := make([]*request, 0, s.cfg.maxBatch)
	var held *request
	for {
		first := held
		held = nil
		if first == nil {
			var ok bool
			if first, ok = <-s.reqs; !ok {
				return
			}
		}
		batch = append(batch[:0], first)
	fill:
		for len(batch) < s.cfg.maxBatch {
			select {
			case r, ok := <-s.reqs:
				if !ok {
					break fill // closed and drained: the next receive exits
				}
				if !sameShape(r.x, first.x) {
					held = r
					break fill
				}
				batch = append(batch, r)
			default:
				break fill
			}
		}
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
	s.met.batches.Inc()
	s.met.batched.Add(int64(len(batch)))
	s.met.occupancy.Observe(float64(len(batch)))
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
	v.at = assembled
	out, verify := s.eng.ForwardFetch(x, v)
	v.flush(verify)
	k := out.Shape[1]
	now := time.Now()
	forward := now.Sub(assembled) - verify
	for i, r := range batch {
		// Before the answer goes out: whoever reads the clock after its
		// reply finds its own wait already counted.
		s.queueNs.Add(int64(start.Sub(r.enq)))
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
		r.out <- InferResult{Class: out.Argmax(i*k, k), Logits: logits}
	}
}
