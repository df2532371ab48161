package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"radar/internal/model"
	"radar/internal/nn"
	"radar/internal/quant"
	"radar/internal/tensor"
)

// syntheticModel builds a quant.Model with the given layer sizes and
// deterministic weights. Layers carry no Param, so tests corrupt Q
// directly (which also exercises the "dirty tracking misses direct
// writes" contract where relevant).
func syntheticModel(rng *rand.Rand, sizes []int) *quant.Model {
	m := &quant.Model{}
	for _, n := range sizes {
		m.Layers = append(m.Layers, &quant.Layer{Q: randWeights(rng, n), Scale: 1})
	}
	return m
}

// flipRandomBits corrupts k random bits across the model, bypassing the
// Model API (no dirty notification, no float sync).
func flipRandomBits(rng *rand.Rand, m *quant.Model, k int) {
	for f := 0; f < k; f++ {
		l := m.Layers[rng.Intn(len(m.Layers))]
		i := rng.Intn(len(l.Q))
		l.Q[i] = quant.FlipBit(l.Q[i], rng.Intn(8))
	}
}

// TestSignaturesRangeMatchesSignatures: the sharded per-range computation
// is byte-identical to the single-pass full-layer scan over random
// geometries, keys, offsets, and range boundaries.
func TestSignaturesRangeMatchesSignatures(t *testing.T) {
	f := func(seed int64, key uint16, interleave bool) bool {
		rng := rand.New(rand.NewSource(seed))
		l := 1 + rng.Intn(600)
		s := scheme(1+rng.Intn(64), interleave, key)
		s.Offset = rng.Intn(7)
		q := randWeights(rng, l)
		want := s.Signatures(q)
		n := s.NumGroups(l)
		// Full range in one call.
		if got := s.SignaturesRange(q, 0, n); !reflect.DeepEqual(got, want) {
			return false
		}
		// Random chunking must tile to the same signatures.
		lo := 0
		for lo < n {
			hi := lo + 1 + rng.Intn(n-lo)
			got := s.SignaturesRange(q, lo, hi)
			if !reflect.DeepEqual(got, want[lo:hi]) {
				return false
			}
			lo = hi
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestScanParallelMatchesSequential: Scan with Workers: N returns exactly
// the flagged set and order of Workers: 1, over random models, corruption
// patterns, shard sizes, and worker counts. Run under -race this also
// exercises the pool handoff.
func TestScanParallelMatchesSequential(t *testing.T) {
	f := func(seed int64, interleave bool) bool {
		rng := rand.New(rand.NewSource(seed))
		sizes := make([]int, 1+rng.Intn(6))
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(2000)
		}
		m := syntheticModel(rng, sizes)
		cfg := Config{
			G:           1 + rng.Intn(64),
			Interleave:  interleave,
			SigBits:     2 + rng.Intn(2),
			Seed:        seed,
			shardGroups: 1 + rng.Intn(50),
		}
		cfg.Workers = 1
		p := Protect(m, cfg)
		flipRandomBits(rng, m, 1+rng.Intn(40))
		want := p.Scan()
		for _, w := range []int{2, 3, 8, 0} {
			p.SetWorkers(w)
			if got := p.Scan(); !reflect.DeepEqual(got, want) {
				t.Logf("workers=%d: got %v want %v", w, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestProtectParallelMatchesSequential: golden signatures are independent
// of the worker count and shard size used to generate them.
func TestProtectParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := syntheticModel(rng, []int{3000, 1, 517, 2048})
	cfg := DefaultConfig(32)
	cfg.Workers = 1
	seq := Protect(m, cfg)
	for _, w := range []int{2, 7, 0} {
		c := cfg
		c.Workers = w
		c.shardGroups = 5
		par := Protect(m, c)
		if !reflect.DeepEqual(par.Schemes, seq.Schemes) {
			t.Fatalf("workers=%d: schemes differ", w)
		}
		if !reflect.DeepEqual(par.Golden, seq.Golden) {
			t.Fatalf("workers=%d: golden signatures differ", w)
		}
	}
}

// TestScanDirtyCleanAndAfterAttack: ScanDirty flags nothing on a clean
// model, flags everything a full Scan flags after an attack mounted
// through the Model API, and skips layers that were not rewritten.
func TestScanDirtyCleanAndAfterAttack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := syntheticModel(rng, []int{800, 1100, 600})
	attachParams(m)
	cfg := DefaultConfig(8)
	cfg.Workers = 4
	p := Protect(m, cfg)

	if flagged := p.ScanDirty(); flagged != nil {
		t.Fatalf("clean model: ScanDirty flagged %v", flagged)
	}

	// Attack through the Model API so dirty tracking sees it.
	var addrs []quant.BitAddress
	for f := 0; f < 12; f++ {
		li := rng.Intn(len(m.Layers))
		addrs = append(addrs, quant.BitAddress{
			LayerIndex:  li,
			WeightIndex: rng.Intn(len(m.Layers[li].Q)),
			Bit:         quant.MSB,
		})
		m.FlipBit(addrs[f])
	}

	dirty := p.ScanDirty()
	full := p.Scan() // golden untouched, so the full scan sees the same corruption
	if !reflect.DeepEqual(dirty, full) {
		t.Fatalf("ScanDirty %v != Scan %v", dirty, full)
	}
	if len(full) == 0 {
		t.Fatal("attack not detected")
	}

	// Scan cleared all dirty flags and nothing was recovered: the damage is
	// still in DRAM, but no layer is dirty, so the incremental scan skips
	// every layer — that skipping is the entire point of the API.
	if again := p.ScanDirty(); again != nil {
		t.Fatalf("no writes since last scan, yet ScanDirty flagged %v", again)
	}

	// A single new write re-dirties exactly one layer: ScanDirty reports
	// that layer's corruption (old and new) and still skips the others.
	m.FlipBit(quant.BitAddress{LayerIndex: 1, WeightIndex: 5, Bit: quant.MSB})
	for _, g := range p.ScanDirty() {
		if g.Layer != 1 {
			t.Fatalf("clean layer %d scanned: %v", g.Layer, g)
		}
	}
}

// TestDetachStopsDirtyTracking: a detached protector no longer observes
// model writes (the retire path for re-protected models), while an
// attached one on the same model still does.
func TestDetachStopsDirtyTracking(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := syntheticModel(rng, []int{400})
	attachParams(m)
	old := Protect(m, DefaultConfig(8))
	old.Detach()
	cur := Protect(m, DefaultConfig(16))
	m.FlipBit(quant.BitAddress{LayerIndex: 0, WeightIndex: 9, Bit: quant.MSB})
	if flagged := old.ScanDirty(); flagged != nil {
		t.Fatalf("detached protector saw the write: %v", flagged)
	}
	if flagged := cur.ScanDirty(); len(flagged) != 1 {
		t.Fatalf("attached protector missed the write: %v", flagged)
	}
}

// TestScanDirtySeesRestore: Restore rewrites every layer through the Model
// API, so a subsequent ScanDirty re-checks the whole model.
func TestScanDirtySeesRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := syntheticModel(rng, []int{500, 700})
	attachParams(m)
	p := Protect(m, DefaultConfig(8))
	snap := m.Snapshot()
	m.FlipBit(quant.BitAddress{LayerIndex: 0, WeightIndex: 3, Bit: quant.MSB})
	if flagged := p.ScanDirty(); len(flagged) != 1 {
		t.Fatalf("flip not flagged: %v", flagged)
	}
	m.Restore(snap)
	if flagged := p.ScanDirty(); flagged != nil {
		t.Fatalf("restored model flagged %v", flagged)
	}
}

// attachParams wires a float tensor to each synthetic layer so SyncIndex
// has somewhere to write during FlipBit/Recover.
func attachParams(m *quant.Model) {
	for _, l := range m.Layers {
		if l.Param == nil {
			l.Param = nn.NewParam("test", tensor.New(len(l.Q)), true)
		}
	}
}

// BenchmarkScan sweeps the parallel scan engine's worker pool (1/2/4/N)
// over a synthetic full-scale ResNet-18 ImageNet weight image (11.7M
// weights, the paper's G=512 deployment point). Each sub-benchmark
// verifies the flagged-group output is identical to the workers=1 sweep,
// so any scheduling nondeterminism fails the benchmark rather than
// skewing it.
func BenchmarkScan(b *testing.B) {
	qm := model.SyntheticQuant(model.ResNet18ImageNetShapes())
	cfg := DefaultConfig(512)
	cfg.Workers = 1
	prot := Protect(qm, cfg)
	// Real mismatches for the scan to report: 64 MSBs at fixed, scattered
	// positions, written to Layer.Q directly (no float side to sync).
	for f := 0; f < 64; f++ {
		l := qm.Layers[(f*7)%len(qm.Layers)]
		i := (f * 1_000_003) % len(l.Q)
		l.Q[i] = quant.FlipBit(l.Q[i], quant.MSB)
	}
	var baseline []GroupID
	sweep := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); !slices.Contains(sweep, n) {
		sweep = append(sweep, n)
	}
	for _, w := range sweep {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prot.SetWorkers(w)
			b.SetBytes(int64(qm.TotalWeights()))
			b.ResetTimer()
			var flagged []GroupID
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
	prot := Protect(qm, DefaultConfig(512))
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

// BenchmarkProtectorScan measures a full-model run-time scan on the
// trained ResNet-18 substitute.
func BenchmarkProtectorScan(b *testing.B) {
	bundle := model.Load(model.ResNet18sSpec())
	prot := Protect(bundle.QModel, DefaultConfig(17))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if flagged := prot.Scan(); len(flagged) != 0 {
			b.Fatal("clean model flagged")
		}
	}
}
