package core

import (
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"radar/internal/quant"
)

// hookRecorder is a concurrency-safe OnLayerScanned sink.
type hookRecorder struct {
	mu     sync.Mutex
	layers []int
}

func (r *hookRecorder) hook(li int) {
	r.mu.Lock()
	r.layers = append(r.layers, li)
	r.mu.Unlock()
}

func (r *hookRecorder) take() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]int(nil), r.layers...)
	r.layers = r.layers[:0]
	sort.Ints(out)
	return out
}

// TestOnLayerScannedHook pins the hook contract: every scan/protect pass
// fires the hook exactly once per covered layer, after that layer's last
// shard — across the sequential path, the parallel fan-out, incremental
// scans, and the initial Protect.
func TestOnLayerScannedHook(t *testing.T) {
	for _, workers := range []int{1, 4} {
		m := hookTestModel()
		var rec hookRecorder
		cfg := DefaultConfig(8)
		cfg.Workers = workers
		cfg.shardGroups = 2 // force several shards per layer
		cfg.OnLayerScanned = rec.hook
		p := Protect(m, cfg)
		all := []int{0, 1, 2}
		if got := rec.take(); !reflect.DeepEqual(got, all) {
			t.Fatalf("workers=%d Protect fired %v, want %v", workers, got, all)
		}
		p.Scan()
		if got := rec.take(); !reflect.DeepEqual(got, all) {
			t.Fatalf("workers=%d Scan fired %v, want %v", workers, got, all)
		}
		p.ScanLayer(1)
		if got := rec.take(); !reflect.DeepEqual(got, []int{1}) {
			t.Fatalf("workers=%d ScanLayer(1) fired %v", workers, got)
		}
		m.FlipBit(quant.BitAddress{LayerIndex: 2, WeightIndex: 7, Bit: 3})
		p.ScanDirty()
		if got := rec.take(); !reflect.DeepEqual(got, []int{2}) {
			t.Fatalf("workers=%d ScanDirty fired %v, want [2]", workers, got)
		}
		if p.ScanDirty(); len(rec.take()) != 0 {
			t.Fatalf("workers=%d clean ScanDirty fired the hook", workers)
		}
		p.DetectAndRecover()
		if got := rec.take(); !reflect.DeepEqual(got, all) {
			t.Fatalf("workers=%d DetectAndRecover fired %v, want %v", workers, got, all)
		}
		p.RefreshAll()
		if got := rec.take(); !reflect.DeepEqual(got, all) {
			t.Fatalf("workers=%d RefreshAll fired %v, want %v", workers, got, all)
		}
	}
}

// TestRekeyKeepsSettings pins that Rekey rotates only the secrets: the
// schemes keep G, interleaving and signature bits, and the protector keeps
// its workers, its OnLayerScanned hook and its ECC mode.
func TestRekeyKeepsSettings(t *testing.T) {
	m := hookTestModel()
	var rec hookRecorder
	cfg := DefaultConfig(8)
	cfg.SigBits = 3
	cfg.Workers = 3
	cfg.OnLayerScanned = rec.hook
	cfg.Correct = true
	p := Protect(m, cfg)
	before := slices.Clone(p.Schemes)
	p.Rekey(0x5EED)
	rec.take() // drain Protect's and the rekey's signature passes
	for li, s := range p.Schemes {
		if s.G != before[li].G || s.Interleave != before[li].Interleave || s.SigBits != before[li].SigBits {
			t.Fatalf("layer %d: rekey changed the scheme's shape from %+v to %+v", li, before[li], s)
		}
	}
	if p.Workers() != 3 || !p.Correcting() {
		t.Fatalf("after rekey: Workers()=%d Correcting()=%v, want 3 and true", p.Workers(), p.Correcting())
	}
	p.Scan()
	if got, want := rec.take(), []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("scan after rekey fired the hook for %v, want %v", got, want)
	}
}

func hookTestModel() *quant.Model {
	m := &quant.Model{}
	for i, n := range []int{96, 41, 120} {
		l := &quant.Layer{Name: []string{"a", "b", "c"}[i], Q: make([]int8, n), Scale: 1}
		for j := range l.Q {
			l.Q[j] = int8((j*31 + i*7) % 251)
		}
		m.Layers = append(m.Layers, l)
	}
	return m
}

// TestRecoveryNotifiesObservers pins that Recover (and the locking
// variants) report their direct Layer.Q zeroing through the model's write
// observers — the notification an mmap-backed store relies on to schedule
// recovered layers for msync.
func TestRecoveryNotifiesObservers(t *testing.T) {
	m := hookTestModel()
	p := Protect(m, DefaultConfig(8))
	m.FlipBit(quant.BitAddress{LayerIndex: 1, WeightIndex: 5, Bit: quant.MSB})
	var rec hookRecorder
	cancel := m.Observe(rec.hook)
	defer cancel()
	flagged, zeroed := p.DetectAndRecover()
	if len(flagged) == 0 || zeroed == 0 {
		t.Fatalf("flip not recovered: flagged=%v zeroed=%d", flagged, zeroed)
	}
	if got := rec.take(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("recovery notified %v, want [1]", got)
	}
	// A scan of the now-clean model recovers nothing and must not notify.
	p.Scan()
	if got := rec.take(); len(got) != 0 {
		t.Fatalf("clean scan notified %v", got)
	}
}
