package serve

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"radar/internal/adversary"
	"radar/internal/core"
	"radar/internal/model"
	"radar/internal/obs"
	"radar/internal/qinfer"
	"radar/internal/quant"
	"radar/internal/tensor"
)

// infer is the test shorthand for an untraced background-context inferContext.
func infer(srv *Server, x *tensor.Tensor) (InferResult, error) {
	return srv.inferContext(context.Background(), x, "")
}

// newTestServer wires a server outside any Service, on a private metrics
// registry and trace ring, configured as AddModel would.
func newTestServer(eng *qinfer.Engine, prot *core.Protector, opts ...ModelOption) *Server {
	cfg := newConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return newServerIn(eng, prot, cfg, obs.NewRegistry(), "default", obs.NewTraceRing(defaultTraceRingSize))
}

// sized sets a runtime's worker count and batch cap: tests use it to build
// exact backlogs.
func sized(workers, maxBatch int) ModelOption {
	return func(c *config) { c.workers, c.maxBatch = workers, maxBatch }
}

// oneSlot is one worker taking one request at a time from a one-request
// queue: a single wedged pass saturates it.
func oneSlot(c *config) { c.workers, c.maxBatch, c.queueDepth = 1, 1, 1 }

// newTinyServer boots a server on the tiny test model. Each call builds an
// independent bundle, so tests may corrupt weights freely.
func newTinyServer(t testing.TB, opts ...ModelOption) (*model.Bundle, *Server) {
	t.Helper()
	return newTinyServerWith(t, core.DefaultConfig(4), opts...)
}

// newTinyServerWith is newTinyServer under a chosen protection config.
func newTinyServerWith(t testing.TB, pcfg core.Config, opts ...ModelOption) (*model.Bundle, *Server) {
	t.Helper()
	b, srv := buildTinyServer(t, pcfg, opts...)
	srv.Start()
	return b, srv
}

// buildTiny brings up an independent tiny model through Build, in RAM.
func buildTiny(t testing.TB, pcfg core.Config) Built {
	t.Helper()
	m, err := Build(model.TinySpec(), pcfg, "")
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

// buildTinyServer wires a server on the tiny test model without starting it:
// no workers, no scrub ticker, cycles driven by hand.
func buildTinyServer(t testing.TB, pcfg core.Config, opts ...ModelOption) (*model.Bundle, *Server) {
	t.Helper()
	m := buildTiny(t, pcfg)
	srv := newTestServer(m.Engine, m.Prot, append(m.Options, opts...)...)
	t.Cleanup(srv.Stop)
	return m.Bundle, srv
}

// sample extracts input i of a dataset batch as a standalone (C,H,W) tensor.
func sample(x *tensor.Tensor, i int) *tensor.Tensor {
	shape := x.Shape[1:]
	vol := tensor.Volume(shape)
	out := tensor.New(shape...)
	copy(out.Data, x.Data[i*vol:(i+1)*vol])
	return out
}

func TestServeMatchesDirectEngine(t *testing.T) {
	m := buildTiny(t, core.DefaultConfig(4))
	// Reference answers before the engine is handed to the server.
	x, _ := m.Bundle.Test.Batch(0, 16)
	ref := m.Engine.Forward(x)
	k := ref.Shape[1]

	srv := newTestServer(m.Engine, m.Prot)
	srv.Start()
	defer srv.Stop()

	var wg sync.WaitGroup
	results := make([]InferResult, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := infer(srv, sample(x, i))
			if err != nil {
				t.Errorf("Infer %d: %v", i, err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if want := ref.Argmax(i*k, k); res.Class != want {
			t.Fatalf("input %d: served class %d, direct engine %d", i, res.Class, want)
		}
		for j, v := range res.Logits {
			if v != ref.Data[i*k+j] {
				t.Fatalf("input %d logit %d: served %v, direct %v", i, j, v, ref.Data[i*k+j])
			}
		}
	}
	if n := srv.met.requests.Value(); n != 16 {
		t.Fatalf("counted %d requests, want 16", n)
	}
}

func TestServeRejectsBadShape(t *testing.T) {
	_, srv := newTinyServer(t)
	if _, err := infer(srv, tensor.New(1, 2, 3)); err == nil {
		t.Fatal("mismatched input shape accepted")
	}
	if _, err := infer(srv, tensor.New(5)); err == nil {
		t.Fatal("rank-1 input accepted")
	}
}

func TestGracefulShutdown(t *testing.T) {
	b, srv := newTinyServer(t)
	x, _ := b.Test.Batch(0, 8)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = infer(srv, sample(x, i))
		}(i)
	}
	wg.Wait()
	srv.Stop()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("pre-stop request %d failed: %v", i, err)
		}
	}
	if _, err := infer(srv, sample(x, 0)); !errors.Is(err, ErrStopping) {
		t.Fatalf("post-stop Infer returned %v, want ErrStopping", err)
	}
	srv.Stop() // idempotent
}

// cleanReference compiles an engine over its own copy of the tiny model —
// weights no adversary in the test ever touches — to answer what a clean
// server must answer.
func cleanReference(t testing.TB) *qinfer.Engine {
	t.Helper()
	return buildTiny(t, core.DefaultConfig(4)).Engine
}

// mustAnswerLike fails unless res carries exactly the reference engine's
// logits for input x.
func mustAnswerLike(t testing.TB, ref *qinfer.Engine, x *tensor.Tensor, res InferResult) {
	t.Helper()
	in := tensor.New(append([]int{1}, x.Shape...)...)
	copy(in.Data, x.Data)
	want := ref.Forward(in)
	for j, v := range res.Logits {
		if v != want.Data[j] {
			t.Errorf("logit %d: served %v, clean reference %v", j, v, want.Data[j])
			return
		}
	}
}

// msbVolley plans MSB flips at the given weights of one layer.
func msbVolley(layer int, weights ...int) []quant.BitAddress {
	var out []quant.BitAddress
	for _, w := range weights {
		out = append(out, quant.BitAddress{LayerIndex: layer, WeightIndex: w, Bit: quant.MSB})
	}
	return out
}

// TestVerifiedFetchCatchesPhysicalFlips is the fetch path held to its
// threat model: with the scrubber off, an adversary mounts MSB flips as
// direct weight writes — no observer fires, as for a real rowhammer flip
// — on a conv layer and on the classifier, between two requests. The very
// next batch must flag and repair all of them before computing on them,
// so every answer equals the clean reference engine's.
func TestVerifiedFetchCatchesPhysicalFlips(t *testing.T) {
	pcfg := core.DefaultConfig(4)
	pcfg.Correct = true // ECC repair: the image comes back bit-identical
	// Scrubber off: nothing but the fetch path can catch a flip.
	b, srv := newTinyServerWith(t, pcfg, WithScrub(0))
	ref := cleanReference(t)
	x, _ := b.Test.Batch(0, 4)
	prot := srv.prot

	res, err := infer(srv, sample(x, 0))
	if err != nil {
		t.Fatal(err)
	}
	mustAnswerLike(t, ref, sample(x, 0), res)
	if scans, flagged := srv.met.verifyScans.Value(), srv.met.verifyFlagged.Value(); scans != int64(len(b.QModel.Layers)) || flagged != 0 {
		t.Fatalf("clean pass: %d layer checks (model has %d layers), %d flagged", scans, len(b.QModel.Layers), flagged)
	}

	fc := len(b.QModel.Layers) - 1
	volley := append(msbVolley(1, 0, 1, 2, 3), msbVolley(fc, 0, 1)...) // interleaved: adjacent weights, distinct groups
	groups := map[core.GroupID]bool{}
	for _, a := range volley {
		groups[prot.GroupOf(a)] = true
	}
	if len(groups) != len(volley) {
		t.Fatalf("volley lands in %d groups, want %d (one flip per group keeps ECC repair exact)", len(groups), len(volley))
	}
	snapshot := b.QModel.Snapshot()
	srv.Inject(func(m *quant.Model) {
		adversary.Mount(adversary.Target{Model: m, Prot: prot}, adversary.Volley{Weights: volley})
	})
	if prot.ScanDirty() != nil { // no layer dirty: nothing scanned, nothing flagged
		t.Fatal("the mounted volley announced itself to the write observers")
	}

	res, err = infer(srv, sample(x, 1))
	if err != nil {
		t.Fatal(err)
	}
	mustAnswerLike(t, ref, sample(x, 1), res)
	if st := prot.Stats(); st.GroupsRecovered != int64(len(volley)) || st.GroupsCorrected != int64(len(volley)) {
		t.Fatalf("next batch repaired %d groups (%d by ECC), volley had %d", st.GroupsRecovered, st.GroupsCorrected, len(volley))
	}
	flagged, cycles := srv.met.verifyFlagged.Value(), srv.met.scrubCycles.Value()
	if flagged != int64(len(volley)) || cycles != 0 {
		t.Fatalf("fetch path flagged %d groups over %d scrub cycles, want %d over 0", flagged, cycles, len(volley))
	}
	for li, l := range b.QModel.Layers {
		if !slices.Equal(l.Q, snapshot[li]) {
			t.Fatalf("layer %d differs from its pre-attack image after repair", li)
		}
	}

	// The repair is not re-flagged, and the next answer is clean too.
	res, err = infer(srv, sample(x, 2))
	if err != nil {
		t.Fatal(err)
	}
	mustAnswerLike(t, ref, sample(x, 2), res)
	if srv.met.verifyFlagged.Value() != flagged {
		t.Fatal("repaired groups were flagged again on the next request")
	}
}

// TestVerifiedFetchUnderInjection is the -race contract of the fused
// fetch: an injector mounts physical flips back to back while two workers
// serve, with the scrubber off. Every fetch that meets a flip trades its
// read lock for the write lock, repairs by ECC and computes under that
// hold, so no answer may ever differ from the clean reference.
func TestVerifiedFetchUnderInjection(t *testing.T) {
	pcfg := core.DefaultConfig(4)
	pcfg.Correct = true
	b, srv := newTinyServerWith(t, pcfg, WithScrub(0), sized(2, 2))
	ref := cleanReference(t)
	x, _ := b.Test.Batch(0, 8)
	prot := srv.prot

	const clients, perClient = 4, 30
	stop := make(chan struct{})
	var injected sync.WaitGroup
	injected.Add(1)
	go func() {
		defer injected.Done()
		rng := rand.New(rand.NewSource(9))
		for {
			select {
			case <-stop:
				return
			default:
			}
			li := rng.Intn(len(b.QModel.Layers))
			w := rng.Intn(len(b.QModel.Layers[li].Q))
			srv.Inject(func(m *quant.Model) {
				// One flip per injection into a group that is clean right
				// now (the lock is ours), so ECC repair stays exact.
				a := quant.BitAddress{LayerIndex: li, WeightIndex: w, Bit: quant.MSB}
				g := prot.GroupOf(a)
				if prot.Schemes[li].Signature(m.Layers[li].Q, g.Group) == prot.Golden[li][g.Group] {
					adversary.Mount(adversary.Target{Model: m, Prot: prot}, adversary.Volley{Weights: []quant.BitAddress{a}})
				}
			})
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				in := sample(x, (c+i)%8)
				res, err := infer(srv, in)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				mustAnswerLike(t, ref, in, res)
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	injected.Wait()
	if srv.met.verifyFlagged.Value() == 0 {
		t.Fatalf("no fetch ever met a flip over %d injections: the escalation path did not run", srv.met.injections.Value())
	}
	if st := prot.Stats(); st.GroupsZeroed != 0 {
		t.Fatalf("%d groups fell back to zeroing; single flips must be corrected in place", st.GroupsZeroed)
	}
}

// TestVerifiedForwardAddsNoAllocs: a forward pass through a worker's
// verifier — locks, inline checksums, stamps, counters — allocates exactly
// what the bare engine pass allocates.
func TestVerifiedForwardAddsNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	b, srv := newTinyServer(t)
	srv.Stop() // the engine is ours now: no worker, no scrubber
	x, _ := b.Test.Batch(0, 1)
	v := &verifier{s: srv}
	bare := testing.AllocsPerRun(20, func() { srv.eng.Forward(x) })
	verified := testing.AllocsPerRun(20, func() {
		_, spent := srv.eng.ForwardFetch(x, v)
		v.flush(spent)
	})
	if verified != bare {
		t.Fatalf("verified pass allocates %.0f times, bare pass %.0f", verified, bare)
	}
	if srv.met.verifyScans.Value() == 0 {
		t.Fatal("the verified passes verified nothing")
	}
}

// TestExposureWindow: the gauge is the age of the least recently verified
// layer, and everything that can see a physical flip resets it — a
// verified-fetch pass (which reads every layer), a scrub tick and a forced
// full sweep.
func TestExposureWindow(t *testing.T) {
	b, srv := newTinyServer(t, WithScrub(0))
	x, _ := b.Test.Batch(0, 1)

	time.Sleep(5 * time.Millisecond)
	if before := srv.exposureWindow(); before < 5*time.Millisecond {
		t.Fatalf("idle window %v, want at least the 5ms since start", before)
	}
	tick := time.Now()
	srv.Scrub(false)
	if w, since := srv.exposureWindow(), time.Since(tick); w > since {
		t.Fatalf("window %v after a scrub tick that began %v ago", w, since)
	}
	time.Sleep(5 * time.Millisecond)
	t0 := time.Now()
	if _, err := infer(srv, sample(x, 0)); err != nil {
		t.Fatal(err)
	}
	if w, since := srv.exposureWindow(), time.Since(t0); w > since {
		t.Fatalf("window %v after a verified pass that began %v ago", w, since)
	}
	time.Sleep(5 * time.Millisecond)
	t1 := time.Now()
	srv.Scrub(true)
	if w, since := srv.exposureWindow(), time.Since(t1); w > since {
		t.Fatalf("window %v after a full sweep that began %v ago", w, since)
	}
}

// TestScrubberRepairsBypassingWrites: corruption written directly to
// Layer.Q (bypassing the model API, like a true hardware flip) announces
// itself to nothing, and every scrub cycle — a tick as much as a forced
// full sweep — catches it all the same: what an idle model, which fetches
// nothing, depends on.
func TestScrubberRepairsBypassingWrites(t *testing.T) {
	b, srv := newTinyServer(t, WithScrub(0)) // drive cycles by hand for determinism

	l := b.QModel.Layers[1]
	for _, full := range []bool{false, true} {
		srv.Inject(func(m *quant.Model) {
			l.Q[7] = quant.FlipBit(l.Q[7], quant.MSB) // direct write, no notify
		})
		flagged, zeroed := srv.Scrub(full)
		if len(flagged) == 0 || zeroed == 0 {
			t.Fatalf("scrub (full=%v) missed direct corruption", full)
		}
		if flagged[0].Layer != 1 {
			t.Fatalf("flagged layer %d, want 1", flagged[0].Layer)
		}
	}
	if cycles, flagged, zeroed := srv.met.scrubCycles.Value(), srv.met.scrubFlagged.Value(), srv.met.scrubZeroed.Value(); cycles != 2 || flagged == 0 || zeroed == 0 {
		t.Fatalf("scrub metrics wrong: %d cycles, %d flagged, %d zeroed", cycles, flagged, zeroed)
	}
}
