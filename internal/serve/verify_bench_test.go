package serve

import (
	"context"
	"testing"
	"time"

	"radar/internal/core"
	"radar/internal/model"
	"radar/internal/qinfer"
	"radar/internal/tensor"
)

// BenchmarkVerifiedFetch prices the fused fetch where it runs: one
// batch-1 forward pass of a served model through a worker's verifier, with
// verification off and on. fetch-µs/op is the time the pass spent in its
// fetch steps (with verification off, the lock alone); the difference in
// ns/op is what verification adds to a forward — the figure to hold
// against the paper's Tables IV/V overheads.
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
		for _, verify := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.VerifiedFetch = verify
			srv := newTestServer(eng, prot, cfg)
			v := &verifier{s: srv}
			name := spec.Name + "/verify=off"
			if verify {
				name = spec.Name + "/verify=on"
			}
			b.Run(name, func(b *testing.B) {
				var spent time.Duration
				for b.Loop() {
					_, d := eng.ForwardFetch(x, v)
					spent += d
				}
				b.ReportMetric(float64(spent.Microseconds())/float64(b.N), "fetch-µs/op")
			})
		}
		prot.Detach()
	}
}

// BenchmarkServe measures the serving subsystem's request throughput on
// the tiny zoo model with the background scrubber and the verified
// weight-fetch path toggled — the software cost of continuous protection
// on a live server (requests arrive from GOMAXPROCS parallel clients and
// are coalesced by the batcher).
func BenchmarkServe(b *testing.B) {
	configs := []struct {
		name          string
		scrub, verify bool
	}{
		{"scrub=off/verify=off", false, false},
		{"scrub=on/verify=off", true, false},
		{"scrub=off/verify=on", false, true},
		{"scrub=on/verify=on", true, true},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			bundle := model.Load(model.TinySpec())
			calib, _ := bundle.Attack.Batch(0, 64)
			eng, err := qinfer.Compile(bundle.Net, bundle.QModel, calib)
			if err != nil {
				b.Fatal(err)
			}
			prot := core.Protect(bundle.QModel, core.DefaultConfig(8))
			cfg := DefaultConfig()
			cfg.VerifiedFetch = c.verify
			if c.scrub {
				cfg.ScrubInterval = 2 * time.Millisecond
			} else {
				cfg.ScrubInterval = 0
			}
			svc, err := Open(WithModel("bench", eng, prot, WithConfig(cfg)))
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
