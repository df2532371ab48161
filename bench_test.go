// Benchmarks regenerating every table and figure of the paper (README.md
// §Experiments maps experiment ids to modules). The statistical
// experiments run at the Quick scale here so `go test -bench=.` finishes
// in minutes; the paper-sized numbers come from `radar-bench -scale
// full`, which runs the identical code at the paper's round counts. Each
// benchmark logs the rendered artifact so the rows/series are visible in
// the bench output.
package radar_test

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"radar"
	"radar/internal/attack"
	"radar/internal/core"
	"radar/internal/ecc"
	"radar/internal/exp"
	"radar/internal/memsim"
	"radar/internal/model"
	"radar/internal/qinfer"
	"radar/internal/quant"
	"radar/internal/serve"
	"radar/internal/tensor"
)

var (
	ctxOnce  sync.Once
	benchCtx *exp.Context
)

// sharedCtx lazily builds one Quick-scale experiment context; the PBFA
// profiles it caches are shared by every table/figure benchmark.
func sharedCtx(b *testing.B) *exp.Context {
	b.Helper()
	ctxOnce.Do(func() { benchCtx = exp.NewContext(exp.Quick()) })
	return benchCtx
}

func BenchmarkTableI(b *testing.B) {
	ctx := sharedCtx(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = exp.TableI(ctx).Render()
	}
	b.Log("\n" + out)
}

func BenchmarkTableII(b *testing.B) {
	ctx := sharedCtx(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = exp.TableII(ctx).Render()
	}
	b.Log("\n" + out)
}

func BenchmarkFigure2(b *testing.B) {
	ctx := sharedCtx(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = exp.Figure2(ctx).Render()
	}
	b.Log("\n" + out)
}

func BenchmarkFigure4(b *testing.B) {
	ctx := sharedCtx(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = exp.Figure4(ctx).Render()
	}
	b.Log("\n" + out)
}

func BenchmarkMissRate(b *testing.B) {
	opt := exp.Quick()
	var out string
	for i := 0; i < b.N; i++ {
		out = exp.MissRate(opt).Render()
	}
	b.Log("\n" + out)
}

func BenchmarkTableIII(b *testing.B) {
	ctx := sharedCtx(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = exp.TableIII(ctx).Render()
	}
	b.Log("\n" + out)
}

func BenchmarkFigure5(b *testing.B) {
	ctx := sharedCtx(b)
	t3 := exp.TableIII(ctx)
	var out string
	for i := 0; i < b.N; i++ {
		out = exp.Figure5(t3).Render()
	}
	b.Log("\n" + out)
}

func BenchmarkFigure6(b *testing.B) {
	ctx := sharedCtx(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = exp.Figure6(ctx).Render()
	}
	b.Log("\n" + out)
}

func BenchmarkTableIV(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = exp.TableIV().Render()
	}
	b.Log("\n" + out)
}

func BenchmarkTableV(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = exp.TableV().Render()
	}
	b.Log("\n" + out)
}

func BenchmarkFigure7(b *testing.B) {
	ctx := sharedCtx(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = exp.Figure7(ctx).Render()
	}
	b.Log("\n" + out)
}

func BenchmarkMSB1(b *testing.B) {
	ctx := sharedCtx(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = exp.MSB1(ctx).Render()
	}
	b.Log("\n" + out)
}

func BenchmarkRowhammer(b *testing.B) {
	ctx := sharedCtx(b)
	var out string
	for i := 0; i < b.N; i++ {
		out = exp.Rowhammer(ctx).Render()
	}
	b.Log("\n" + out)
}

func BenchmarkAblationMasking(b *testing.B) {
	opt := exp.Quick()
	var out string
	for i := 0; i < b.N; i++ {
		out = exp.MaskingAblation(opt).Render()
	}
	b.Log("\n" + out)
}

func BenchmarkAblationSigBits(b *testing.B) {
	opt := exp.Quick()
	var out string
	for i := 0; i < b.N; i++ {
		out = exp.SigBitsAblation(opt).Render()
	}
	b.Log("\n" + out)
}

func BenchmarkAblationBatch(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = exp.BatchAmortization().Render()
	}
	b.Log("\n" + out)
}

// --- Throughput microbenchmarks (the raw costs Tables IV/V model) ---

// BenchmarkScan sweeps the parallel scan engine's worker pool (1/2/4/N)
// over a synthetic full-scale ResNet-18 ImageNet weight image (11.7M
// weights, the paper's G=512 deployment point). Each sub-benchmark
// verifies the flagged-group output is identical to the workers=1 sweep,
// so any scheduling nondeterminism fails the benchmark rather than
// skewing it.
func BenchmarkScan(b *testing.B) {
	qm := model.SyntheticQuant(model.ResNet18ImageNetShapes())
	cfg := radar.DefaultConfig(512)
	cfg.Workers = 1
	prot := radar.Protect(qm, cfg)
	// Real mismatches for the scan to report: 64 MSBs at fixed, scattered
	// positions, written to Layer.Q directly (no float side to sync).
	for f := 0; f < 64; f++ {
		l := qm.Layers[(f*7)%len(qm.Layers)]
		i := (f * 1_000_003) % len(l.Q)
		l.Q[i] = quant.FlipBit(l.Q[i], quant.MSB)
	}
	var baseline []radar.GroupID
	sweep := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); !slices.Contains(sweep, n) {
		sweep = append(sweep, n)
	}
	for _, w := range sweep {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prot.SetWorkers(w)
			b.SetBytes(int64(qm.TotalWeights()))
			b.ResetTimer()
			var flagged []radar.GroupID
			for i := 0; i < b.N; i++ {
				flagged = prot.Scan()
			}
			b.StopTimer()
			if baseline == nil {
				baseline = flagged
			}
			if len(flagged) != len(baseline) {
				b.Fatalf("workers=%d flagged %d groups, workers=1 flagged %d",
					w, len(flagged), len(baseline))
			}
			for i := range flagged {
				if flagged[i] != baseline[i] {
					b.Fatalf("workers=%d diverges from workers=1 at %d: %v vs %v",
						w, i, flagged[i], baseline[i])
				}
			}
		})
	}
}

// BenchmarkScanDirty measures the incremental scan: one layer dirtied per
// iteration, the rest skipped — the steady-state cost of guarding a model
// that receives sparse writes.
func BenchmarkScanDirty(b *testing.B) {
	qm := model.SyntheticQuant(model.ResNet18ImageNetShapes())
	prot := radar.Protect(qm, radar.DefaultConfig(512))
	b.SetBytes(int64(len(qm.Layers[0].Q)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qm.Layers[0].Q[i%len(qm.Layers[0].Q)] ^= 0 // keep weights clean…
		prot.MarkLayerDirty(0)                     // …but force a layer-0 rescan
		if flagged := prot.ScanDirty(); len(flagged) != 0 {
			b.Fatal("clean model flagged")
		}
	}
}

// BenchmarkSignatureScan measures RADAR's software checksum throughput —
// the SWAR kernel — over a 4 MiB weight image at G=512, interleaved.
func BenchmarkSignatureScan(b *testing.B) {
	q := make([]int8, 1<<22) // 4 MiB layer
	for i := range q {
		q[i] = int8(i * 31)
	}
	s := core.Scheme{G: 512, Interleave: true, Offset: 3, Key: 0xBEEF, SigBits: 2}
	b.SetBytes(int64(len(q)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Signatures(q)
	}
}

// BenchmarkSignatureScanPlain is the non-interleaved variant.
func BenchmarkSignatureScanPlain(b *testing.B) {
	q := make([]int8, 1<<22)
	for i := range q {
		q[i] = int8(i * 31)
	}
	s := core.Scheme{G: 512, Offset: 3, Key: 0xBEEF, SigBits: 2}
	b.SetBytes(int64(len(q)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Signatures(q)
	}
}

// BenchmarkSignatureScanRef runs the retained scalar row-walk kernel over
// the same image — the in-tree "old kernel" baseline the SWAR speedup is
// measured against.
func BenchmarkSignatureScanRef(b *testing.B) {
	q := make([]int8, 1<<22)
	for i := range q {
		q[i] = int8(i * 31)
	}
	s := core.Scheme{G: 512, Interleave: true, Offset: 3, Key: 0xBEEF, SigBits: 2}
	b.SetBytes(int64(len(q)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SignaturesRangeRef(q, 0, s.NumGroups(len(q)))
	}
}

// BenchmarkSignatureScanPlainRef is the scalar non-interleaved baseline.
func BenchmarkSignatureScanPlainRef(b *testing.B) {
	q := make([]int8, 1<<22)
	for i := range q {
		q[i] = int8(i * 31)
	}
	s := core.Scheme{G: 512, Offset: 3, Key: 0xBEEF, SigBits: 2}
	b.SetBytes(int64(len(q)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SignaturesRangeRef(q, 0, s.NumGroups(len(q)))
	}
}

// BenchmarkCRC13Scan measures the bit-serial CRC-13 baseline over the same
// volume — the software analogue of Table V's time comparison.
func BenchmarkCRC13Scan(b *testing.B) {
	q := make([]int8, 1<<22)
	for i := range q {
		q[i] = int8(i * 31)
	}
	b.SetBytes(int64(len(q)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < len(q); off += 512 {
			ecc.CRC13.ComputeInt8(q[off : off+512])
		}
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
			prot := radar.Protect(bundle.QModel, radar.DefaultConfig(8))
			cfg := serve.DefaultConfig()
			cfg.VerifiedFetch = c.verify
			if c.scrub {
				cfg.ScrubInterval = 2 * time.Millisecond
			} else {
				cfg.ScrubInterval = 0
			}
			svc, err := serve.Open(serve.WithModel("bench", eng, prot, serve.WithConfig(cfg)))
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
					if _, err := svc.Infer(ctx, serve.Request{Input: in}); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			snap, _ := svc.Snapshot("")
			if snap.AvgBatch > 0 {
				b.ReportMetric(snap.AvgBatch, "reqs/batch")
			}
		})
	}
}

// BenchmarkProtectorScan measures a full-model run-time scan on the
// trained ResNet-18 substitute.
func BenchmarkProtectorScan(b *testing.B) {
	bundle := model.Load(model.ResNet18sSpec())
	prot := radar.Protect(bundle.QModel, radar.DefaultConfig(17))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if flagged := prot.Scan(); len(flagged) != 0 {
			b.Fatal("clean model flagged")
		}
	}
}

// BenchmarkPBFAFlip measures the cost of one progressive bit-search step
// on the ResNet-20 substitute (gradient pass + candidate ranking + trials).
func BenchmarkPBFAFlip(b *testing.B) {
	bundle := model.Load(model.ResNet20sSpec())
	cfg := attack.DefaultConfig(1)
	cfg.NumFlips = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attack.PBFA(bundle.QModel, bundle.Attack, cfg)
	}
}

// BenchmarkInferenceRN20 measures eval-mode inference throughput of the
// scaled ResNet-20 (batch 100).
func BenchmarkInferenceRN20(b *testing.B) {
	bundle := model.Load(model.ResNet20sSpec())
	x, _ := bundle.Test.Batch(0, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bundle.Net.Forward(x, false)
	}
}

// BenchmarkMemsimRADAR measures the cost-model evaluation itself (cheap;
// exists so the Table IV pipeline has a perf guard).
func BenchmarkMemsimRADAR(b *testing.B) {
	tab := model.ResNet18ImageNetShapes()
	cm := memsim.DefaultCostModel()
	for i := 0; i < b.N; i++ {
		cm.SimulateRADAR(tab, memsim.RADARConfig{G: 512, Interleave: true, SigBits: 2})
	}
}

// BenchmarkQuantizeRN20 measures model quantization.
func BenchmarkQuantizeRN20(b *testing.B) {
	bundle := model.Load(model.ResNet20sSpec())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quant.Quantize(bundle.Net)
	}
}
