package fleet

import (
	"sync"
	"time"
)

// shedBuckets is the sliding window's resolution: outcomes are folded
// into this many coarse time buckets spanning Config.ShedWindow, so
// recording stays O(1) and rate() never walks an unbounded event list.
const shedBuckets = 8

// shedWindow is one replica's sliding outcome window. The proxy records
// every data-plane attempt it sends the replica — successes alongside
// queue-full sheds, attempt timeouts and 5xx verdicts — and the
// soft-drain decision reads the bad fraction over the last ShedWindow.
type shedWindow struct {
	mu    sync.Mutex
	width time.Duration // one bucket's span
	slots [shedBuckets]shedBucket
}

type shedBucket struct {
	epoch      int64 // absolute bucket index the slot currently holds
	total, bad int
}

func newShedWindow(window time.Duration) *shedWindow {
	return &shedWindow{width: window / shedBuckets}
}

// slot rotates the ring to the current bucket and returns it.
func (w *shedWindow) slot(now time.Time) *shedBucket {
	epoch := now.UnixNano() / int64(w.width)
	s := &w.slots[epoch%shedBuckets]
	if s.epoch != epoch {
		*s = shedBucket{epoch: epoch}
	}
	return s
}

// record folds one attempt outcome into the window.
func (w *shedWindow) record(bad bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := w.slot(time.Now())
	s.total++
	if bad {
		s.bad++
	}
}

// rate returns the bad fraction and sample count over the live window.
// An empty window reads as rate 0 — a drained replica receives no sync
// traffic, so its window decays to empty and clears the drain.
func (w *shedWindow) rate() (float64, int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	epoch := time.Now().UnixNano() / int64(w.width)
	total, bad := 0, 0
	for i := range w.slots {
		if s := &w.slots[i]; s.epoch > epoch-shedBuckets {
			total += s.total
			bad += s.bad
		}
	}
	if total == 0 {
		return 0, 0
	}
	return float64(bad) / float64(total), total
}

// recordOutcome books one data-plane attempt against a replica's window
// and, on a bad outcome, re-checks the soft-drain threshold.
func (f *Fleet) recordOutcome(base string, bad bool) {
	r, ok := f.replicas[base]
	if !ok {
		return
	}
	r.window.record(bad)
	if bad {
		f.maybeSoftDrain(r)
	}
}

// maybeSoftDrain weighs a persistently overloaded replica out of new
// sync traffic: once its window's bad fraction crosses Config.ShedRate
// with enough samples, it leaves the ring (new routing skips it) while
// staying healthy — its jobs still reach it by replica tag, broadcasts
// still include it, and the prober readmits it once the window clears.
// The last ring member is never soft-drained: spreading overload needs
// somewhere to spread to.
func (f *Fleet) maybeSoftDrain(r *replica) {
	rate, samples := r.window.rate()
	if rate < f.cfg.ShedRate || samples < f.cfg.ShedMinSamples {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.shedded || !f.ring.Has(r.url) || len(f.ring.Members()) <= 1 {
		return
	}
	r.shedded = true
	f.ring.Remove(r.url)
	f.met.softDrains.With(r.host).Inc()
}

// maybeReadmitShed ends a soft drain once the replica's window has
// cleared: drained replicas see no new sync traffic, so their windows
// decay to empty within ShedWindow, and they rejoin the ring (unless an
// admin drain or health ejection still holds them out). Called from the
// probe loop each tick.
func (f *Fleet) maybeReadmitShed(r *replica) {
	r.mu.Lock()
	shedded := r.shedded
	r.mu.Unlock()
	if !shedded {
		return
	}
	rate, samples := r.window.rate()
	if samples != 0 && rate >= f.cfg.ShedRate/2 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.shedded {
		return
	}
	r.shedded = false
	f.met.shedReadmits.With(r.host).Inc()
	if r.healthy && !r.draining {
		f.ring.Add(r.url)
	}
}
