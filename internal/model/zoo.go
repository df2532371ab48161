package model

import (
	"encoding/gob"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"radar/internal/data"
	"radar/internal/nn"
	"radar/internal/quant"
)

// Spec fully describes a zoo model: architecture, data and training recipe.
type Spec struct {
	// Name keys the cache entry.
	Name string
	// Arch builds the (untrained) network.
	Arch func(rng *rand.Rand) *nn.Sequential
	// Data is the synthetic dataset family.
	Data data.SynthConfig
	// TrainN and TestN size the train/test splits.
	TrainN, TestN int
	// Train is the training recipe.
	Train TrainConfig
}

// ResNet20sSpec is the scaled stand-in for the paper's CIFAR-10 ResNet-20:
// identical 3-stage ×3-block topology at base width 8 on 16×16 synthetic
// images. Trained with Adam as in the paper's ResNet-20 recipe.
func ResNet20sSpec() Spec {
	return Spec{
		Name: "resnet20s",
		Arch: func(rng *rand.Rand) *nn.Sequential {
			return nn.BuildResNet(nn.ResNet20Config(8, 10), rng)
		},
		Data:   data.SynthCIFAR(),
		TrainN: 2000, TestN: 1000,
		Train: TrainConfig{
			Epochs: 10, BatchSize: 50, Optimizer: "adam",
			LR: 0.01, WeightDecay: 1e-4, LRDropEvery: 4, Seed: 7,
		},
	}
}

// ResNet18sSpec is the scaled stand-in for the paper's ImageNet ResNet-18:
// identical 4-stage ×2-block topology at base width 12 on 32×32 synthetic
// images with 20 classes. Fine-tuned with SGD as in the paper's recipe.
func ResNet18sSpec() Spec {
	return Spec{
		Name: "resnet18s",
		Arch: func(rng *rand.Rand) *nn.Sequential {
			return nn.BuildResNet(nn.ResNet18Config(12, 20, true), rng)
		},
		Data:   data.SynthImageNet(),
		TrainN: 2000, TestN: 1000,
		Train: TrainConfig{
			Epochs: 8, BatchSize: 50, Optimizer: "sgd",
			LR: 0.05, WeightDecay: 1e-4, LRDropEvery: 3, Seed: 7,
		},
	}
}

// TinySpec is a deliberately small model for fast unit tests: ResNet-20
// topology at base width 4 on 8×8 images.
func TinySpec() Spec {
	cfg := data.SynthConfig{Classes: 4, Size: 8, Channels: 3, Waves: 2, Noise: 0.3, Seed: 3003}
	return Spec{
		Name: "tiny",
		Arch: func(rng *rand.Rand) *nn.Sequential {
			return nn.BuildResNet(nn.ResNet20Config(4, 4), rng)
		},
		Data:   cfg,
		TrainN: 400, TestN: 200,
		Train: TrainConfig{
			Epochs: 4, BatchSize: 40, Optimizer: "adam",
			LR: 0.01, WeightDecay: 1e-4, Seed: 7,
		},
	}
}

// SpecByName returns the zoo entry called tiny, resnet20s or resnet18s.
func SpecByName(name string) (Spec, bool) {
	switch name {
	case "tiny":
		return TinySpec(), true
	case "resnet20s":
		return ResNet20sSpec(), true
	case "resnet18s":
		return ResNet18sSpec(), true
	}
	return Spec{}, false
}

// Bundle is a ready-to-attack model instance: a freshly built network with
// trained weights, its quantized DRAM image, and the datasets used to
// attack and evaluate it. Every call to Load returns an independent Bundle,
// so experiments can corrupt weights freely.
type Bundle struct {
	// Spec echoes the zoo entry.
	Spec Spec
	// Net is the float network (weights on the quantization grid).
	Net *nn.Sequential
	// QModel is the quantized weight image wired to Net.
	QModel *quant.Model
	// Test is the held-out evaluation set.
	Test *data.Dataset
	// Attack is the small "attacker's dataset" with the same distribution
	// as training data (the paper's white-box assumption).
	Attack *data.Dataset
	// CleanAccuracy is the test accuracy of the unattacked quantized model.
	CleanAccuracy float64
}

var (
	cacheMu sync.Mutex
	states  = map[string]*nn.State{}
	cleans  = map[string]float64{}
)

// cacheDir resolves the on-disk checkpoint directory (repo testdata),
// locating the repository root relative to this source file so tests and
// benchmarks in any package share one cache.
func cacheDir() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "testdata-models"
	}
	return filepath.Join(filepath.Dir(file), "..", "..", "testdata", "models")
}

// Load returns a fresh Bundle for spec, training the model on first use
// and caching the trained state on disk (gob checkpoint). A cached
// checkpoint is decoded straight into the fresh network via AdoptState —
// the decoded tensors become the network's own buffers, so the float
// weights materialize once per Load instead of decode-buffer-plus-copy.
// The bundle's datasets draw their images on first read (see data), so a
// caller pays only for the images it reads.
func Load(spec Spec) *Bundle {
	net := spec.Arch(rand.New(rand.NewSource(1)))
	clean, ok := loadCheckpointInto(net, filepath.Join(cacheDir(), spec.Name+".gob"))
	if !ok {
		// No usable disk checkpoint: train (or reuse the state memory-cached
		// by an earlier training whose disk save failed). The memory cache
		// is shared across Loads, so it is copied in, never adopted.
		cacheMu.Lock()
		st, hit := states[spec.Name]
		clean = cleans[spec.Name]
		cacheMu.Unlock()
		if !hit {
			st, clean = trainState(spec)
			cacheMu.Lock()
			states[spec.Name] = st
			cleans[spec.Name] = clean
			cacheMu.Unlock()
		}
		net.LoadState(st)
	}
	qm := quant.Quantize(net)
	test := data.Generate(spec.Data, spec.TestN, 202)
	attack := data.Generate(spec.Data, 256, 909)
	return &Bundle{Spec: spec, Net: net, QModel: qm, Test: test, Attack: attack, CleanAccuracy: clean}
}

// checkpoint is the gob-serialized form of a trained model.
type checkpoint struct {
	State *nn.State
	Clean float64
}

// loadCheckpointInto decodes the gob checkpoint at path directly into net,
// which adopts the decoded tensors as its own buffers (nn.AdoptState): one
// float materialization per load. Returns ok=false — leaving net untouched
// beyond its fresh initialization — when the checkpoint is missing or
// corrupt, so the caller falls back to training.
func loadCheckpointInto(net *nn.Sequential, path string) (clean float64, ok bool) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false
	}
	defer f.Close()
	var ck checkpoint
	if err := gob.NewDecoder(f).Decode(&ck); err != nil || ck.State == nil {
		return 0, false // corrupt checkpoint: caller retrains
	}
	net.AdoptState(ck.State)
	return ck.Clean, true
}

// trainState trains spec's model from scratch, measures its clean
// quantized accuracy, and best-effort persists the result as a gob
// checkpoint for future Loads.
func trainState(spec Spec) (*nn.State, float64) {
	net := spec.Arch(rand.New(rand.NewSource(1)))
	train, test := data.Generate(spec.Data, spec.TrainN, 101), data.Generate(spec.Data, spec.TestN, 202)
	Train(net, train, test, spec.Train)
	// Clean accuracy is measured on the *quantized* model, matching the
	// paper's baselines.
	qnet := spec.Arch(rand.New(rand.NewSource(1)))
	qnet.LoadState(net.CaptureState())
	quant.Quantize(qnet)
	clean := Evaluate(qnet, test, 100)
	st := net.CaptureState()
	saveCheckpoint(filepath.Join(cacheDir(), spec.Name+".gob"), &checkpoint{State: st, Clean: clean})
	return st, clean
}

func saveCheckpoint(path string, ck *checkpoint) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return // cache is best-effort; training result is still returned
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return
	}
	if err := gob.NewEncoder(f).Encode(ck); err != nil {
		f.Close()
		os.Remove(tmp)
		return
	}
	f.Close()
	os.Rename(tmp, path)
}

// MustClean returns the bundle's clean accuracy formatted for reports.
func (b *Bundle) MustClean() string { return fmt.Sprintf("%.2f%%", 100*b.CleanAccuracy) }
