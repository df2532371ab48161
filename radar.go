// Package radar is the public API of the RADAR reproduction — a run-time
// adversarial weight-attack detection and accuracy-recovery scheme for
// 8-bit quantized neural networks (Li et al., DATE 2021).
//
// The typical round trip:
//
//	qm := radar.Quantize(net)                     // int8 DRAM image of a trained model
//	p := radar.Protect(qm, radar.DefaultConfig(512)) // golden signatures in secure storage
//	...                                           // adversary flips bits in qm
//	flagged, zeroed := p.DetectAndRecover()       // scan, zero corrupted groups
//
// Scanning is parallel: Protect, Scan, ScanLayer, and RefreshAll shard each
// layer's group range across a bounded worker pool sized by Config.Workers
// (default: one worker per CPU), and DetectAndRecover is one such scan
// followed by the repair of what it flagged. Flagged groups come back
// sorted by layer then group and are byte-identical for every worker count.
// Protector.ScanDirty is the incremental variant: the protector observes
// writes made through the QuantModel API and re-scans only the layers
// touched since their last scan, skipping clean layers entirely.
//
// For deployment, serving.go re-exports the protected inference service
// (internal/serve): OpenService hosts any number of protected int8 models
// behind one context-aware client surface — sync Infer with deadlines
// honored into the batch queue, an async job API (Submit/Poll/Wait), and
// a versioned HTTP control plane with live admin scrub/rekey.
//
// The heavy machinery lives in internal packages: internal/core (the
// scheme), internal/quant (quantization and bit manipulation), internal/nn
// and internal/tensor (the inference/training stack), internal/attack
// (PBFA), internal/ecc (CRC/Hamming baselines), internal/memsim (timing
// simulation) and internal/rowhammer (DRAM fault injection). This package
// re-exports the stable surface a downstream user needs.
package radar

import (
	"radar/internal/core"
	"radar/internal/nn"
	"radar/internal/quant"
)

// Config selects the model-wide RADAR parameters; see core.Config.
type Config = core.Config

// Protector binds golden signatures to a quantized model; see
// core.Protector.
type Protector = core.Protector

// Scheme is the per-layer grouping/masking/signature configuration; see
// core.Scheme.
type Scheme = core.Scheme

// GroupID identifies one checksum group of a protected model.
type GroupID = core.GroupID

// StorageBreakdown itemizes secure-storage costs.
type StorageBreakdown = core.StorageBreakdown

// QuantModel is the int8 weight image of a network; see quant.Model.
type QuantModel = quant.Model

// BitAddress identifies one bit of one quantized weight.
type BitAddress = quant.BitAddress

// SecureStore is the serialized secure-storage image of a protector; see
// core.SecureStore.
type SecureStore = core.SecureStore

// DefaultConfig returns the paper's standard configuration for a group
// size: interleaving enabled, 2-bit signatures. Set Config.Workers to
// bound the scan engine's worker pool (zero means one worker per CPU).
func DefaultConfig(g int) Config { return core.DefaultConfig(g) }

// UnsealProtector reconstructs a protector for m from sealed secure-store
// state (the inverse of Protector.Seal).
func UnsealProtector(m *QuantModel, store SecureStore) (*Protector, error) {
	return core.UnsealProtector(m, store)
}

// Protect computes golden signatures for every quantized layer of m.
func Protect(m *QuantModel, cfg Config) *Protector { return core.Protect(m, cfg) }

// Quantize converts every conv/linear weight of net to an int8 symmetric
// quantized image wired back into the float network.
func Quantize(net *nn.Sequential) *QuantModel { return quant.Quantize(net) }

// StorageForWeights computes the signature storage for a layer-size
// inventory without instantiating a model (e.g. for capacity planning).
func StorageForWeights(layerWeights []int, g, sigBits int, interleave bool) StorageBreakdown {
	return core.StorageForWeights(layerWeights, g, sigBits, interleave)
}
