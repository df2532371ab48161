package serve

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"radar/internal/core"
	"radar/internal/model"
	"radar/internal/qinfer"
	"radar/internal/tensor"
)

// holdWeights holds the protector's Exclusive section from a goroutine:
// every worker blocks at its next weight fetch until the returned func is
// called, so a test can build an exact backlog behind busy workers or
// saturate a queue. release may be called twice; it returns once every
// layer lock is free again.
func holdWeights(srv *Server) (release func()) {
	in, out, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		srv.prot.Exclusive(func() { close(in); <-out })
	}()
	<-in
	return sync.OnceFunc(func() { close(out); <-done })
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// mustSubmit enqueues x and returns the channel its answer arrives on.
func mustSubmit(t *testing.T, srv *Server, x *tensor.Tensor) <-chan InferResult {
	t.Helper()
	ch, err := srv.submit(context.Background(), x, "", true)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return ch
}

// TestBacklogBecomesBatches pins the work-conserving policy on an exact
// backlog: one worker takes a lone request the moment it arrives (batch of
// 1), blocks in its forward pass while 16 more queue, and on coming free
// takes them maxBatch at a time — three passes carrying 1, 8 and 8, every
// answer bit-identical to the bare engine's.
func TestBacklogBecomesBatches(t *testing.T) {
	b, srv := newTinyServer(t, WithScrub(0), sized(1, 8))
	ref := cleanReference(t)
	x, _ := b.Test.Batch(0, 17)

	release := holdWeights(srv)
	chans := []<-chan InferResult{mustSubmit(t, srv, sample(x, 0))}
	// The batch counter moves once the worker has stopped filling and is
	// about to fetch weights — which the held write locks refuse it.
	waitFor(t, "the worker to take the lone request", func() bool { return srv.met.batches.Value() == 1 })
	if depth, carried := len(srv.reqs), srv.met.batched.Value(); depth != 0 || carried != 1 {
		t.Fatalf("first pass carries %d requests with %d still queued, want 1 and 0", carried, depth)
	}
	for i := 1; i < 17; i++ {
		chans = append(chans, mustSubmit(t, srv, sample(x, i)))
	}
	if depth := len(srv.reqs); depth != 16 {
		t.Fatalf("queue depth %d behind the busy worker, want 16", depth)
	}
	release()
	for i, ch := range chans {
		mustAnswerLike(t, ref, sample(x, i), <-ch)
	}
	// First pass 1, then 16 requests in two passes of at most 8: 1, 8, 8.
	if n, sum := srv.met.occupancy.Count(), srv.met.occupancy.Sum(); n != 3 || sum != 17 {
		t.Fatalf("%d passes carrying %v requests, want 3 carrying 17", n, sum)
	}
	if batches, reqs := srv.met.batches.Value(), srv.met.requests.Value(); batches != 3 || reqs != 17 {
		t.Fatalf("counters: %d batches, %d requests, want 3 and 17", batches, reqs)
	}
}

// TestLoneRequestDoesNotWait: an idle server hands a request to a worker
// after a goroutine wake-up, not after a timer.
func TestLoneRequestDoesNotWait(t *testing.T) {
	b, srv := newTinyServer(t, WithScrub(0))
	x, _ := b.Test.Batch(0, 1)
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := srv.inferContext(context.Background(), sample(x, 0), fmt.Sprintf("lone-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var waits []float64
	for _, tr := range srv.traces.Last(n) {
		for _, st := range tr.Stages {
			if st.Name == "queue" {
				waits = append(waits, st.Ms)
			}
		}
	}
	if len(waits) != n {
		t.Fatalf("%d queue stages traced, want %d", len(waits), n)
	}
	slices.Sort(waits)
	if med := waits[n/2]; med >= 1 {
		t.Fatalf("median queue wait of a lone request %.3f ms, want < 1 ms", med)
	}
	// Every request was traced, so the scrapeable clock must hold exactly
	// the waits the traces saw.
	var sum float64
	for _, w := range waits {
		sum += w
	}
	if got := float64(srv.queueNs.Load()) / 1e6; math.Abs(got-sum) > 1e-6 {
		t.Fatalf("radar_queue_seconds_total holds %.6f ms, the traced queue stages sum to %.6f ms", got, sum)
	}
}

// TestShapeChangeCarriesOver: with no input shape pinned a backlog may mix
// geometries. A request of another shape ends the batch and opens the
// worker's next one, so A,A,B,B,A runs as [A,A],[B,B],[A] — nothing lost,
// every request answered for its own input.
func TestShapeChangeCarriesOver(t *testing.T) {
	b := model.Load(model.TinySpec())
	calib, _ := b.Attack.Batch(0, 64)
	eng, err := qinfer.Compile(b.Net, b.QModel, calib)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// No WithInputShape: any (C,H,W) is accepted.
	srv := newTestServer(eng, core.Protect(b.QModel, core.DefaultConfig(4)), WithScrub(0), sized(1, 8))
	srv.Start()
	defer srv.Stop()
	ref := cleanReference(t)

	x, _ := b.Test.Batch(0, 3)
	wide := func(i int) *tensor.Tensor { // shape B: the same channels on a 16×16 grid
		a := sample(x, i)
		out := tensor.New(a.Shape[0], 16, 16)
		for j := range out.Data {
			out.Data[j] = a.Data[j%len(a.Data)]
		}
		return out
	}
	inputs := []*tensor.Tensor{sample(x, 0), sample(x, 1), wide(0), wide(1), sample(x, 2)}

	release := holdWeights(srv)
	plug := mustSubmit(t, srv, sample(x, 0)) // occupies the worker while the backlog forms
	waitFor(t, "the worker to take the plug", func() bool { return srv.met.batches.Value() == 1 })
	var chans []<-chan InferResult
	for _, in := range inputs {
		chans = append(chans, mustSubmit(t, srv, in))
	}
	release()
	<-plug
	for i, ch := range chans {
		mustAnswerLike(t, ref, inputs[i], <-ch)
	}
	// Shape-pure passes over a FIFO backlog A,A,B,B,A: three is the fewest
	// possible, and only [A,A],[B,B],[A] achieves it.
	if n, sum := srv.met.occupancy.Count()-1, srv.met.occupancy.Sum()-1; n != 3 || sum != 5 {
		t.Fatalf("backlog ran as %d passes carrying %v requests, want 3 carrying 5", n, sum)
	}
}

// TestStopAnswersBacklog: Stop closes the intake and the workers drain it —
// every request already queued is answered, none dropped.
func TestStopAnswersBacklog(t *testing.T) {
	b, srv := newTinyServer(t, WithScrub(0), sized(2, 4))
	ref := cleanReference(t)
	x, _ := b.Test.Batch(0, 8)

	release := holdWeights(srv)
	const n = 21
	var chans []<-chan InferResult
	for i := 0; i < n; i++ {
		chans = append(chans, mustSubmit(t, srv, sample(x, i%8)))
	}
	stopped := make(chan struct{})
	go func() { defer close(stopped); srv.Stop() }()
	waitFor(t, "Stop to begin", srv.stopping.Load)
	release()
	<-stopped
	for i, ch := range chans {
		select {
		case res := <-ch:
			mustAnswerLike(t, ref, sample(x, i%8), res)
		default:
			t.Fatalf("request %d of the backlog was never answered", i)
		}
	}
	if reqs := srv.met.requests.Value(); reqs != n {
		t.Fatalf("%d requests answered, want %d", reqs, n)
	}
}
