package model

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"radar/internal/data"
	"radar/internal/nn"
	"radar/internal/quant"
)

// ResetCache drops in-memory cached states, so the next Load reads or
// trains the checkpoint again.
func ResetCache() {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	states = map[string]*nn.State{}
	cleans = map[string]float64{}
}

func TestResNet20CIFARShapeTable(t *testing.T) {
	tab := ResNet20CIFARShapes()
	// The canonical ResNet-20 CIFAR parameter count (weights incl. fc bias,
	// excluding BN affine) is 272,474; conv-only weights are 271,824.
	if got := tab.TotalWeights(); got != 272474 {
		t.Fatalf("ResNet-20 total weights = %d, want 272474", got)
	}
	// 21 conv/fc weight tensors + 21 BN affine tensors + fc = 43 entries.
	if len(tab.Layers) != 43 {
		t.Fatalf("layer count = %d, want 43", len(tab.Layers))
	}
	// ~40.8 MMACs per 32×32 inference is the canonical figure (±10%).
	macs := tab.TotalMACs()
	if macs < 35e6 || macs > 46e6 {
		t.Fatalf("ResNet-20 MACs = %d, want ≈ 40.8M", macs)
	}
}

func TestResNet18ImageNetShapeTable(t *testing.T) {
	tab := ResNet18ImageNetShapes()
	// Canonical ResNet-18 weight count (conv + fc incl. bias, no BN):
	// total: exact.
	got := tab.TotalWeights()
	if got != 11_689_512 {
		t.Fatalf("ResNet-18 total weights = %d, want 11689512", got)
	}
	// ~1.82 GMACs per 224×224 inference.
	macs := tab.TotalMACs()
	if macs < 1.7e9 || macs > 1.9e9 {
		t.Fatalf("ResNet-18 MACs = %d, want ≈ 1.82G", macs)
	}
}

func TestShapeTableLayerOrder(t *testing.T) {
	tab := ResNet20CIFARShapes()
	if tab.Layers[0].Name != "stem.conv" {
		t.Fatalf("first layer = %q", tab.Layers[0].Name)
	}
	if tab.Layers[len(tab.Layers)-1].Name != "fc" {
		t.Fatalf("last layer = %q", tab.Layers[len(tab.Layers)-1].Name)
	}
}

func TestTrainTinyReachesAccuracy(t *testing.T) {
	spec := TinySpec()
	rng := rand.New(rand.NewSource(1))
	net := spec.Arch(rng)
	train, test := data.Generate(spec.Data, spec.TrainN, 101), data.Generate(spec.Data, spec.TestN, 202)
	acc := Train(net, train, test, spec.Train)
	if acc < 0.6 {
		t.Fatalf("tiny model accuracy %.2f too low; training is broken", acc)
	}
}

func TestStateRoundTrip(t *testing.T) {
	spec := TinySpec()
	a := spec.Arch(rand.New(rand.NewSource(1)))
	b := spec.Arch(rand.New(rand.NewSource(2)))
	st := a.CaptureState()
	b.LoadState(st)
	for i, p := range a.Params() {
		q := b.Params()[i]
		for j := range p.Value.Data {
			if p.Value.Data[j] != q.Value.Data[j] {
				t.Fatalf("param %s differs after state round trip", p.Name)
			}
		}
	}
}

func TestLoadBundleCachedAndIndependent(t *testing.T) {
	// Use a temp dir cache via the tiny spec; first Load trains, second
	// must reuse in-memory state and produce an independent copy.
	ResetCache()
	spec := TinySpec()
	spec.Name = "tiny-test-independent"
	defer os.Remove(filepath.Join(cacheDir(), spec.Name+".gob"))

	b1 := Load(spec)
	b2 := Load(spec)
	if b1.Net == b2.Net || b1.QModel == b2.QModel {
		t.Fatal("Load must return independent instances")
	}
	// Mutating one bundle's weights must not affect the other.
	b1.QModel.Layers[0].Q[0] ^= 0x7f
	b1.QModel.SyncAll()
	if b1.QModel.Layers[0].Q[0] == b2.QModel.Layers[0].Q[0] {
		t.Fatal("bundles share quantized storage")
	}
	if b1.CleanAccuracy != b2.CleanAccuracy {
		t.Fatal("clean accuracy must be cached deterministically")
	}
	if b1.CleanAccuracy < 0.6 {
		t.Fatalf("clean accuracy %.2f too low", b1.CleanAccuracy)
	}
}

func TestCheckpointPersistsToDisk(t *testing.T) {
	ResetCache()
	spec := TinySpec()
	spec.Name = "tiny-test-disk"
	path := filepath.Join(cacheDir(), spec.Name+".gob")
	defer os.Remove(path)

	b1 := Load(spec)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	// Drop in-memory cache; reload must come from disk with same weights.
	ResetCache()
	b2 := Load(spec)
	q1, q2 := b1.QModel.Layers[0].Q, b2.QModel.Layers[0].Q
	for i := range q1 {
		if q1[i] != q2[i] {
			t.Fatal("disk checkpoint does not reproduce weights")
		}
	}
}

func TestEvaluateMatchesManualCount(t *testing.T) {
	spec := TinySpec()
	net := spec.Arch(rand.New(rand.NewSource(3)))
	test := data.Generate(spec.Data, 50, 5)
	acc := Evaluate(net, test, 16)
	// Untrained 4-class model should be near chance (just sanity bounds).
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy out of range: %v", acc)
	}
}

func TestVisitFindsAllBNLayers(t *testing.T) {
	net := nn.BuildResNet(nn.ResNet20Config(4, 4), rand.New(rand.NewSource(1)))
	bns := 0
	net.Visit(func(l nn.Layer) {
		if _, ok := l.(*nn.BatchNorm2D); ok {
			bns++
		}
	})
	// stem + 9 blocks × 2 + 2 downsample BNs = 21.
	if bns != 21 {
		t.Fatalf("found %d BN layers, want 21", bns)
	}
}

// BenchmarkInferenceRN20 measures eval-mode inference throughput of the
// scaled ResNet-20 (batch 100).
func BenchmarkInferenceRN20(b *testing.B) {
	bundle := Load(ResNet20sSpec())
	x, _ := bundle.Test.Batch(0, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bundle.Net.Forward(x, false)
	}
}

// BenchmarkQuantizeRN20 measures model quantization.
func BenchmarkQuantizeRN20(b *testing.B) {
	bundle := Load(ResNet20sSpec())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quant.Quantize(bundle.Net)
	}
}
