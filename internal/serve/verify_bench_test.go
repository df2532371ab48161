package serve

import (
	"testing"
	"time"

	"radar/internal/core"
	"radar/internal/model"
	"radar/internal/qinfer"
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
			srv := newServer(eng, prot, cfg)
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
