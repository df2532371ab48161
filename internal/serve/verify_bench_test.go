package serve

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"radar/internal/core"
	"radar/internal/model"
	"radar/internal/nn"
	"radar/internal/qinfer"
	"radar/internal/quant"
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

// BenchmarkVerifiedForwardPaperShapes prices the verified fetch at the
// paper's own deployment points (Table IV): one batch-1 int8 pass of a
// ResNet-20 (width 16, 32×32 input) and of a ResNet-18 (width 64, 1000
// classes, 224×224 input), random weights, every stage through a worker's
// verifier, at group sizes G of 8, 128 and 512. verify-share-% is the
// passes' time in their fetch steps over their whole time — the figure the
// paper's ≲ 1–5 % overheads are held against. A faster pass raises it.
func BenchmarkVerifiedForwardPaperShapes(b *testing.B) {
	for _, shape := range []struct {
		cfg nn.ResNetConfig
		hw  int
	}{{nn.ResNet20Config(16, 10), 32}, {nn.ResNet18Config(64, 1000, false), 224}} {
		rng := rand.New(rand.NewSource(1))
		net := nn.BuildResNet(shape.cfg, rng)
		x := tensor.New(1, 3, shape.hw, shape.hw)
		x.RandNormal(rng, 1)
		qm := quant.Quantize(net)
		eng, err := qinfer.Compile(net, qm, x)
		if err != nil {
			b.Fatal(err)
		}
		for _, g := range []int{8, 128, 512} {
			prot := core.Protect(qm, core.DefaultConfig(g))
			srv := newTestServer(eng, prot)
			b.Run(fmt.Sprintf("%s/G=%d", shape.cfg.Name, g), func(b *testing.B) {
				var spent time.Duration
				f := &verifier{s: srv}
				for b.Loop() {
					_, d := eng.ForwardFetch(x, f)
					spent += d
				}
				b.ReportMetric(100*spent.Seconds()/b.Elapsed().Seconds(), "verify-share-%")
			})
			prot.Detach()
		}
	}
}

// BenchmarkServeBringUp times what a replica computes to host one model,
// as radar-serve does at start and on a hot-add: load the bundle, read the
// 64 attack images that calibrate it, compile the int8 engine and protect
// its weights with ECC-corrected recovery.
func BenchmarkServeBringUp(b *testing.B) {
	cfg := core.DefaultConfig(8)
	cfg.Correct = true
	for _, spec := range []model.Spec{model.TinySpec(), model.ResNet20sSpec()} {
		b.Run(spec.Name, func(b *testing.B) {
			for b.Loop() {
				bundle := model.Load(spec)
				calib, _ := bundle.Attack.Batch(0, 64)
				if _, err := qinfer.Compile(bundle.Net, bundle.QModel, calib); err != nil {
					b.Fatal(err)
				}
				core.Protect(bundle.QModel, cfg).Detach()
			}
		})
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
