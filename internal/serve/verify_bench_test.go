package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"radar/internal/core"
	"radar/internal/model"
	"radar/internal/qinfer"
	"radar/internal/tensor"
)

// lockOnly is a fetch step without verification: a per-layer read lock
// alone, the baseline BenchmarkVerifiedFetch prices the verifier against.
type lockOnly []sync.RWMutex

func (f lockOnly) FetchLayer(li int)   { f[li].RLock() }
func (f lockOnly) ReleaseLayer(li int) { f[li].RUnlock() }

// BenchmarkVerifiedFetch prices the fused fetch where it runs: one
// batch-1 forward pass of a served model through a worker's verifier
// (verify=on) and through the read lock alone (verify=off). fetch-µs/op is
// the time the pass spent in its fetch steps; the difference in ns/op is
// what verification adds to a forward — the figure to hold against the
// paper's Tables IV/V overheads.
func BenchmarkVerifiedFetch(b *testing.B) {
	for _, spec := range []model.Spec{model.TinySpec(), model.ResNet20sSpec()} {
		bundle := model.Load(spec)
		calib, _ := bundle.Attack.Batch(0, 64)
		eng, err := qinfer.Compile(bundle.Net, bundle.QModel, calib)
		if err != nil {
			b.Fatal(err)
		}
		prot := core.Protect(bundle.QModel, core.DefaultConfig(8))
		x, _ := bundle.Test.Batch(0, 1)
		srv := newTestServer(eng, prot)
		for _, leg := range []struct {
			name string
			f    qinfer.WeightFetcher
		}{{"verify=off", make(lockOnly, len(bundle.QModel.Layers))}, {"verify=on", &verifier{s: srv}}} {
			b.Run(spec.Name+"/"+leg.name, func(b *testing.B) {
				var spent time.Duration
				for b.Loop() {
					_, d := eng.ForwardFetch(x, leg.f)
					spent += d
				}
				b.ReportMetric(float64(spent.Microseconds())/float64(b.N), "fetch-µs/op")
			})
		}
		prot.Detach()
	}
}

// BenchmarkServe measures the serving subsystem's request throughput on
// the tiny zoo model, every pass through the verified weight fetch, with
// the background scrubber off and on — the software cost of continuous
// protection on a live server (requests arrive from GOMAXPROCS parallel
// clients and are coalesced by the batcher).
func BenchmarkServe(b *testing.B) {
	for _, scrub := range []time.Duration{0, 2 * time.Millisecond} {
		name := "scrub=off"
		if scrub > 0 {
			name = "scrub=on"
		}
		b.Run(name, func(b *testing.B) {
			bundle := model.Load(model.TinySpec())
			calib, _ := bundle.Attack.Batch(0, 64)
			eng, err := qinfer.Compile(bundle.Net, bundle.QModel, calib)
			if err != nil {
				b.Fatal(err)
			}
			prot := core.Protect(bundle.QModel, core.DefaultConfig(8))
			svc, err := Open(WithModel("bench", eng, prot, WithScrub(scrub)))
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			x, _ := bundle.Test.Batch(0, 1)
			in := tensor.New(x.Shape[1:]...)
			copy(in.Data, x.Data)
			ctx := context.Background()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := svc.Infer(ctx, Request{Input: in}); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			if met := modelSrv(b, svc, "").met; met.batches.Value() > 0 {
				b.ReportMetric(float64(met.batched.Value())/float64(met.batches.Value()), "reqs/batch")
			}
		})
	}
}
