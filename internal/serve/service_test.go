package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"radar/internal/core"
	"radar/internal/model"
	"radar/internal/quant"
	"radar/internal/tensor"
)

// tinyModelOption builds one independent tiny-model registration (fresh
// bundle per call, so tests may corrupt weights freely) and returns the
// bundle + protector alongside the option.
func tinyModelOption(t testing.TB, name string, opts ...ModelOption) (ServiceOption, *model.Bundle, *core.Protector) {
	t.Helper()
	return tinyModelOptionWith(t, name, core.DefaultConfig(4), opts...)
}

// tinyModelOptionWith is tinyModelOption protecting under pcfg.
func tinyModelOptionWith(t testing.TB, name string, pcfg core.Config, opts ...ModelOption) (ServiceOption, *model.Bundle, *core.Protector) {
	t.Helper()
	m := buildTiny(t, pcfg)
	return WithModel(name, m.Engine, m.Prot, append(m.Options, opts...)...), m.Bundle, m.Prot
}

// openTiny opens a service hosting n independent tiny models named
// m0..m{n-1}, with per-model extra options applied to all of them.
func openTiny(t testing.TB, n int, extra []ModelOption, svcOpts ...ServiceOption) (*Service, []*model.Bundle, []*core.Protector) {
	t.Helper()
	names := []string{"m0", "m1", "m2"}[:n]
	bundles := make([]*model.Bundle, n)
	prots := make([]*core.Protector, n)
	opts := append([]ServiceOption(nil), svcOpts...)
	for i, name := range names {
		var o ServiceOption
		o, bundles[i], prots[i] = tinyModelOption(t, name, extra...)
		opts = append(opts, o)
	}
	svc, err := Open(opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(svc.Close)
	return svc, bundles, prots
}

// modelSrv returns the named model's runtime (empty name: the default
// model); its met holds the counters behind the model's /v1/metrics series.
func modelSrv(t testing.TB, svc *Service, name string) *Server {
	t.Helper()
	srv, err := svc.reg.lookup(name)
	if err != nil {
		t.Fatalf("lookup %q: %v", name, err)
	}
	return srv
}

// wedge is holdWeights on the named model of a service.
func wedge(t testing.TB, svc *Service, name string) func() {
	t.Helper()
	return holdWeights(modelSrv(t, svc, name))
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(); err == nil {
		t.Fatal("Open with no models succeeded")
	}
	o1, _, _ := tinyModelOption(t, "dup")
	o2, _, _ := tinyModelOption(t, "dup")
	if _, err := Open(o1, o2); err == nil {
		t.Fatal("duplicate model names accepted")
	}
	bad, _, _ := tinyModelOption(t, "no/slashes")
	if _, err := Open(bad); err == nil {
		t.Fatal("non-URL-safe model name accepted")
	}
	if _, err := Open(WithModel("x", nil, nil)); err == nil {
		t.Fatal("nil engine/protector accepted")
	}
}

// TestTwoModelsConcurrent serves two independently protected models from
// one service and checks that routed answers match each model's direct
// engine output, batch queues and metrics stay separate, and unknown
// names fail typed.
func TestTwoModelsConcurrent(t *testing.T) {
	o0, b0, _ := tinyModelOption(t, "m0")
	o1, b1, _ := tinyModelOption(t, "m1")

	// Reference answers from a clean engine over each model's inputs.
	ref := cleanReference(t)
	refs := make([]*tensor.Tensor, 2)
	for i, b := range []*model.Bundle{b0, b1} {
		x, _ := b.Test.Batch(0, 8)
		refs[i] = ref.Forward(x)
	}

	svc, err := Open(o0, o1)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	ctx := context.Background()
	x0, _ := b0.Test.Batch(0, 8)
	x1, _ := b1.Test.Batch(0, 8)
	type answer struct {
		model int
		idx   int
		res   InferResult
	}
	results := make(chan answer, 16)
	for i := 0; i < 8; i++ {
		go func(i int) {
			res, err := svc.Infer(ctx, Request{Model: "m0", Input: sample(x0, i)})
			if err != nil {
				t.Errorf("m0 %d: %v", i, err)
			}
			results <- answer{0, i, res}
		}(i)
		go func(i int) {
			res, err := svc.Infer(ctx, Request{Model: "m1", Input: sample(x1, i)})
			if err != nil {
				t.Errorf("m1 %d: %v", i, err)
			}
			results <- answer{1, i, res}
		}(i)
	}
	for n := 0; n < 16; n++ {
		a := <-results
		ref := refs[a.model]
		k := ref.Shape[1]
		if want := ref.Argmax(a.idx*k, k); a.res.Class != want {
			t.Fatalf("model m%d input %d: served class %d, direct engine %d",
				a.model, a.idx, a.res.Class, want)
		}
	}

	infos := svc.Models()
	if len(infos) != 2 || infos[0].Name != "m0" || infos[1].Name != "m1" {
		t.Fatalf("Models(): %+v", infos)
	}
	text := exposition(svc)
	for _, info := range infos {
		if want := `radar_requests_total{model="` + info.Name + `"} 8` + "\n"; !strings.Contains(text, want) {
			t.Fatalf("model %s: /v1/metrics lacks %q (metrics must be per-model)", info.Name, want)
		}
	}

	if _, err := svc.Infer(ctx, Request{Model: "nope", Input: sample(x0, 0)}); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("unknown model returned %v, want ErrUnknownModel", err)
	}
	// The empty name routes to the default (first-registered) model.
	if _, err := svc.Infer(ctx, Request{Input: sample(x0, 0)}); err != nil {
		t.Fatalf("default-model routing failed: %v", err)
	}
}

// TestIndependentScrubLoops: two live scrubbers, one per model; an attack
// on m0 is caught by m0's loop while m1's loop keeps cycling without ever
// flagging anything.
func TestIndependentScrubLoops(t *testing.T) {
	// No traffic: nothing but the scrubbers fetches the weights.
	svc, _, prots := openTiny(t, 2, []ModelOption{WithScrub(2 * time.Millisecond)})

	if err := svc.Inject("m0", func(m *quant.Model) {
		m.FlipBit(quant.BitAddress{LayerIndex: 0, WeightIndex: 5, Bit: quant.MSB})
	}); err != nil {
		t.Fatal(err)
	}

	m0, m1 := modelSrv(t, svc, "m0").met, modelSrv(t, svc, "m1").met
	deadline := time.Now().Add(10 * time.Second)
	for m0.scrubFlagged.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("m0's scrubber never caught the flip over %d cycles", m0.scrubCycles.Value())
		}
		time.Sleep(2 * time.Millisecond)
	}
	// m1's loop must cycle on its own schedule — and stay clean.
	for m1.scrubCycles.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("m1's scrubber never ran — loops are not independent")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if flagged, groups := m1.scrubFlagged.Value(), prots[1].Stats().GroupsFlagged; flagged != 0 || groups != 0 {
		t.Fatalf("attack on m0 leaked into m1's accounting: scrub flagged %d, protector flagged %d", flagged, groups)
	}
}

// TestInferContextCancellation is the acceptance check: with the queue
// saturated (workers wedged, bounded queue full), a cancelled context
// must make Infer return promptly instead of parking the caller.
func TestInferContextCancellation(t *testing.T) {
	svc, b, _ := openTiny(t, 1, []ModelOption{WithScrub(0), oneSlot})
	x, _ := b[0].Test.Batch(0, 4)
	release := wedge(t, svc, "m0")
	defer release()

	// Saturate: non-blocking submissions until the bounded queue refuses.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := svc.Submit(context.Background(), Request{Input: sample(x, 0)})
		if errors.Is(err, ErrQueueFull) {
			break
		}
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never saturated")
		}
	}

	// Already-cancelled context: the submit select must bail immediately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := time.Now()
	if _, err := svc.Infer(ctx, Request{Input: sample(x, 1)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Infer on saturated queue returned %v, want context.Canceled", err)
	}
	if dt := time.Since(t0); dt > time.Second {
		t.Fatalf("cancelled Infer took %v to return", dt)
	}

	// Cancellation mid-flight: a request already accepted into the queue
	// must abandon its wait when the context dies.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	t0 = time.Now()
	if _, err := svc.Infer(ctx2, Request{Input: sample(x, 2)}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline-bound Infer returned %v, want DeadlineExceeded", err)
	}
	if dt := time.Since(t0); dt > 5*time.Second {
		t.Fatalf("deadline-bound Infer took %v to return", dt)
	}

	release()
	// Close (t.Cleanup) drains the queue; the cancelled requests are
	// dropped by the workers without computation.
}

// TestStoppingTyped: submissions racing Close fail with ErrStopping
// (errors.Is-able), on both the sync and async paths.
func TestStoppingTyped(t *testing.T) {
	svc, b, _ := openTiny(t, 1, []ModelOption{WithScrub(0)})
	x, _ := b[0].Test.Batch(0, 1)
	svc.Close()
	if _, err := svc.Infer(context.Background(), Request{Input: sample(x, 0)}); !errors.Is(err, ErrStopping) {
		t.Fatalf("Infer after Close returned %v, want ErrStopping", err)
	}
	if _, err := svc.Submit(context.Background(), Request{Input: sample(x, 0)}); !errors.Is(err, ErrStopping) {
		t.Fatalf("Submit after Close returned %v, want ErrStopping", err)
	}
	svc.Close() // idempotent
}

// TestRekeyLive rotates every hosted model's secrets twice mid-traffic:
// four clients keep two models busy across both rekeys and no request may
// fail or change its answer, the schemes must actually change, a
// half-rotated golden must never raise a false positive, and a flip
// mounted after the rekeys must still be detected and recovered by the
// new golden signatures.
func TestRekeyLive(t *testing.T) {
	svc, b, prots := openTiny(t, 2, []ModelOption{WithScrub(0)})
	names := []string{"m0", "m1"}
	x, _ := b[0].Test.Batch(0, 4)
	ctx := context.Background()

	var base [2][4]int // pre-rekey answer per (model, input)
	for m, name := range names {
		for i := range base[m] {
			res, err := svc.Infer(ctx, Request{Model: name, Input: sample(x, i)})
			if err != nil {
				t.Fatal(err)
			}
			base[m][i] = res.Class
		}
	}

	var (
		wg     sync.WaitGroup
		served atomic.Int64
		stop   = make(chan struct{})
	)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			for i := 0; ; i = (i + 1) % 4 {
				select {
				case <-stop:
					return
				default:
				}
				res, err := svc.Infer(ctx, Request{Model: names[m], Input: sample(x, i)})
				if err != nil {
					t.Errorf("%s: infer during rekey: %v", names[m], err)
					return
				}
				if res.Class != base[m][i] {
					t.Errorf("%s input %d: rekey changed a clean answer: %d -> %d", names[m], i, base[m][i], res.Class)
					return
				}
				served.Add(1)
			}
		}(c % 2)
	}
	// Deferred so a t.Fatal below cannot leave clients logging into a
	// finished test.
	stopClients := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopClients()
	// traffic blocks until the clients have answered 16 more requests, so
	// every rekey has live requests on both sides of it.
	traffic := func() {
		for mark := served.Load(); served.Load() < mark+16 && !t.Failed(); {
			runtime.Gosched()
		}
	}
	for round := 0; round < 2; round++ {
		before := [][]core.Scheme{
			append([]core.Scheme(nil), prots[0].Schemes...),
			append([]core.Scheme(nil), prots[1].Schemes...),
		}
		traffic()
		reports, err := svc.Rekey("")
		if err != nil {
			t.Fatal(err)
		}
		if len(reports) != 2 || !reports[0].Rekeyed || !reports[1].Rekeyed {
			t.Fatalf("rekey reports: %+v", reports)
		}
		for m, p := range prots {
			if reflect.DeepEqual(before[m], p.Schemes) {
				t.Fatalf("%s: rekey did not rotate the per-layer secrets", names[m])
			}
		}
	}
	traffic()
	stopClients()

	// Clean weights + fresh golden: no false flags, both rekeys counted.
	for _, name := range names {
		met := modelSrv(t, svc, name).met
		if n := met.verifyFlagged.Value(); n != 0 {
			t.Fatalf("%s: rekey produced %d false positives", name, n)
		}
		if n := met.rekeys.Value(); n != 2 {
			t.Fatalf("%s: rekey metric %d, want 2", name, n)
		}
	}

	// The new signatures must still defend the image.
	if err := svc.Inject("m0", func(m *quant.Model) {
		m.FlipBit(quant.BitAddress{LayerIndex: 0, WeightIndex: 3, Bit: quant.MSB})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Infer(ctx, Request{Model: "m0", Input: sample(x, 1)}); err != nil {
		t.Fatal(err)
	}
	if met := modelSrv(t, svc, "m0").met; met.verifyFlagged.Value() == 0 || met.verifyZeroed.Value() == 0 {
		t.Fatalf("post-rekey flip was not detected: %d flagged, %d zeroed", met.verifyFlagged.Value(), met.verifyZeroed.Value())
	}
	if flagged, _ := prots[0].DetectAndRecover(); len(flagged) != 0 {
		t.Fatalf("post-rekey corruption survived: %v", flagged)
	}
}

// TestAdminScrubAllModels: an empty model name fans the admin scrub out
// to every hosted model, and only the corrupted one reports findings —
// including corruption written past the model API (a true hardware flip).
func TestAdminScrubAllModels(t *testing.T) {
	svc, b, _ := openTiny(t, 2, []ModelOption{WithScrub(0)})
	l := b[0].QModel.Layers[1]
	if err := svc.Inject("m0", func(m *quant.Model) {
		l.Q[7] = quant.FlipBit(l.Q[7], quant.MSB) // direct write, no notify
	}); err != nil {
		t.Fatal(err)
	}
	reports, err := svc.Scrub("", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("scrub \"\" hit %d models, want 2", len(reports))
	}
	if reports[0].Model != "m0" || reports[0].Flagged == 0 || reports[0].Zeroed == 0 {
		t.Fatalf("m0's corruption missed: %+v", reports[0])
	}
	if reports[1].Model != "m1" || reports[1].Flagged != 0 {
		t.Fatalf("m1 falsely flagged: %+v", reports[1])
	}
	if _, err := svc.Scrub("nope", true); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("scrub of unknown model: %v", err)
	}
}

// TestHotAddRemoveModel grows and shrinks a running service's model set:
// an added model serves immediately, a removed model's name 404s while
// the survivors keep answering, and the structural guards (duplicate
// name, last model) fail typed.
func TestHotAddRemoveModel(t *testing.T) {
	svc, b, _ := openTiny(t, 1, []ModelOption{WithScrub(0)})
	ctx := context.Background()
	x, _ := b[0].Test.Batch(0, 2)

	eng, prot, opts, err := tinyProvider("m9", "tiny")
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.AddModel("m9", eng, prot, opts...); err != nil {
		t.Fatalf("AddModel: %v", err)
	}
	if _, err := svc.Infer(ctx, Request{Model: "m9", Input: sample(x, 0)}); err != nil {
		t.Fatalf("infer on hot-added model: %v", err)
	}
	if ms := svc.Models(); len(ms) != 2 || ms[1].Name != "m9" {
		t.Fatalf("registry after add: %v", ms)
	}

	// Duplicate name is refused and must not wedge the fresh runtime.
	eng2, prot2, opts2, _ := tinyProvider("m9", "tiny")
	if err := svc.AddModel("m9", eng2, prot2, opts2...); !errors.Is(err, ErrModelExists) {
		t.Fatalf("duplicate AddModel: %v, want ErrModelExists", err)
	}

	if err := svc.RemoveModel("m9"); err != nil {
		t.Fatalf("RemoveModel: %v", err)
	}
	if _, err := svc.Infer(ctx, Request{Model: "m9", Input: sample(x, 0)}); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("infer on removed model: %v, want ErrUnknownModel", err)
	}
	if _, err := svc.Infer(ctx, Request{Model: "m0", Input: sample(x, 1)}); err != nil {
		t.Fatalf("survivor stopped serving after a remove: %v", err)
	}
	if err := svc.RemoveModel("m0"); !errors.Is(err, ErrLastModel) {
		t.Fatalf("removing the last model: %v, want ErrLastModel", err)
	}
	if err := svc.RemoveModel("ghost"); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("removing unknown model: %v, want ErrUnknownModel", err)
	}
}

// TestRemoveDefaultPromotes: removing the default (first-registered) model
// promotes the next-oldest registration, so the empty-name route always
// resolves.
func TestRemoveDefaultPromotes(t *testing.T) {
	svc, b, _ := openTiny(t, 2, []ModelOption{WithScrub(0)})
	ctx := context.Background()
	x, _ := b[0].Test.Batch(0, 1)

	if err := svc.RemoveModel("m0"); err != nil {
		t.Fatalf("RemoveModel(m0): %v", err)
	}
	res, err := svc.Infer(ctx, Request{Input: sample(x, 0)})
	if err != nil {
		t.Fatalf("default route after removing the default: %v", err)
	}
	want, err := svc.Infer(ctx, Request{Model: "m1", Input: sample(x, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != want.Class {
		t.Fatalf("default did not promote to m1: class %d vs %d", res.Class, want.Class)
	}
}

// TestAddModelRacingClose: an AddModel that races Close must not leave a
// live runtime behind — its workers and scrub ticker would run forever
// on a closed service. Each round releases both calls from one barrier
// and delays Close by a growing spin, sweeping the add's window. Every
// runtime is stopped by the end of a round, so the rounds share two
// engine/protector pairs.
func TestAddModelRacingClose(t *testing.T) {
	eng0, prot0, opts0, err := tinyProvider("", "")
	if err != nil {
		t.Fatal(err)
	}
	eng, prot, opts, err := tinyProvider("", "")
	if err != nil {
		t.Fatal(err)
	}
	for i := range 200 {
		svc, err := Open(WithModel("m0", eng0, prot0, opts0...))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			if err := svc.AddModel("late", eng, prot, opts...); err != nil && !errors.Is(err, ErrStopping) {
				t.Errorf("round %d: AddModel: %v", i, err)
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			for spin := time.Now(); time.Since(spin) < time.Duration(i)*time.Microsecond/2; {
			}
			svc.Close()
		}()
		close(start)
		wg.Wait()
		for _, srv := range svc.reg.snapshot() {
			if srv.Healthy() {
				t.Fatalf("round %d: model %q still live after Close", i, srv.name)
			}
		}
	}
}

// TestDefaultRuntime pins what a model added with no options runs — the
// serve runtime of the benchmark's serve-http and fleet-attack workloads:
// a 100ms scrubber, one worker per CPU, batches of up to 8 from a queue of
// 256, a 1024-job table, and a verified fetch on every layer of every
// request.
func TestDefaultRuntime(t *testing.T) {
	// Build's options are left out: the runtime under test is the one a
	// model added with none gets.
	m := buildTiny(t, core.DefaultConfig(4))
	b := m.Bundle
	svc, err := Open(WithModel("m0", m.Engine, m.Prot))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := modelSrv(t, svc, "m0")
	want := config{scrubInterval: 100 * time.Millisecond, workers: runtime.GOMAXPROCS(0), maxBatch: 8, queueDepth: 256}
	if !reflect.DeepEqual(srv.cfg, want) || cap(srv.reqs) != 256 {
		t.Fatalf("default runtime %+v with a %d-deep queue, want %+v", srv.cfg, cap(srv.reqs), want)
	}
	if !strings.Contains(exposition(svc), "radar_jobs_capacity 1024\n") || svc.jobs.cap != 1024 {
		t.Fatalf("job table holds %d, want 1024", svc.jobs.cap)
	}
	x, _ := b.Test.Batch(0, 1)
	if _, err := svc.Infer(context.Background(), Request{Input: sample(x, 0)}); err != nil {
		t.Fatal(err)
	}
	scans := fmt.Sprintf("radar_verify_scans_total{model=\"m0\"} %d\n", len(b.QModel.Layers))
	if text := exposition(svc); !strings.Contains(text, scans) {
		t.Fatalf("one request did not verify every layer: /v1/metrics lacks %q", scans)
	}
}
