// Package memsim is the system-level timing substrate standing in for the
// paper's gem5 simulation (8× Arm Cortex-M4F @ 1 GHz, 32 KB L1 + 64 KB L2;
// see README.md §Experiments). It provides a calibrated cost model that
// prices inference, RADAR detection and CRC detection over the *full-size*
// ResNet-20/ResNet-18 layer shape tables — reproducing Table IV and
// Table V — and a bank/row-buffer DRAM device. The same substrate prices
// the attacker: internal/adversary's RateModel derives rowhammer flip
// throughput from DRAMTiming's row-conflict latency and CostModel's clock.
package memsim

import (
	"radar/internal/model"
)

// The paper's memory system as SimulateInference's weight stream sees it:
// 64-byte lines, and a cold line misses L1 and L2 and pays
// L1 + L2 + DRAM = 1 + 10 + 30 cycles. Each layer is read once, in
// address order, from a cold hierarchy, so no line is touched twice except
// a layer's first line when the previous layer's last read already
// brought it into L1.
const (
	lineBytes      = 64
	coldLineCycles = 41
	l1HitCycles    = 1
)

// weightStream prices that stream in closed form. One access is charged
// per line (hardware streams within a line).
type weightStream struct {
	addr uint64 // first byte of the next read
	end  uint64 // one past the last line read so far (0: nothing read)
}

// read charges a sequential read of n bytes at the stream's address and
// advances past them.
func (s *weightStream) read(n int) uint64 {
	lines := (uint64(n) + lineBytes - 1) / lineBytes
	if lines == 0 {
		return 0
	}
	first := s.addr / lineBytes
	cyc := lines * coldLineCycles
	if first < s.end { // the previous read's last line, still in L1
		cyc -= coldLineCycles - l1HitCycles
	}
	s.addr += uint64(n)
	s.end = first + lines
	return cyc
}

// CostModel prices inference and detection in cycles on the simulated
// system. Constants are calibrated once against the paper's gem5 baselines
// (ResNet-20: 66.3 ms; ResNet-18: 3.268 s at 1 GHz, batch 1) and then used
// unchanged for every overhead experiment (`radar-bench -scale full`
// regenerates them).
type CostModel struct {
	// ClockHz is the core clock (paper: 1 GHz).
	ClockHz float64
	// Cores is the core count available to parallel work (paper: 8).
	Cores int
	// CyclesPerMAC is the effective amortized compute cost of one
	// multiply-accumulate, including load/store and loop overhead, at the
	// parallelism the baseline system achieves.
	CyclesPerMAC float64
	// ChecksumCyclesPerWeight prices RADAR's per-weight work: load, key
	// lookup, conditional negate, accumulate.
	ChecksumCyclesPerWeight float64
	// GroupCycles prices RADAR's per-group work: truncate + compare.
	GroupCycles float64
	// CRCCyclesPerWeight prices bit-serial CRC over an 8-bit weight.
	CRCCyclesPerWeight float64
	// ParallelThreshold is the layer weight count above which detection
	// work spreads across all cores; smaller layers run on one core (the
	// fork/join overhead dominates otherwise).
	ParallelThreshold int
}

// DefaultCostModel returns the calibrated model.
func DefaultCostModel() CostModel {
	return CostModel{
		ClockHz:                 1e9,
		Cores:                   8,
		CyclesPerMAC:            1.70,
		ChecksumCyclesPerWeight: 9,
		GroupCycles:             4,
		CRCCyclesPerWeight:      50,
		ParallelThreshold:       100_000,
	}
}

// Seconds converts cycles to seconds at the model clock.
func (c CostModel) Seconds(cycles float64) float64 { return cycles / c.ClockHz }

// InferenceResult reports the simulated times of one configuration.
type InferenceResult struct {
	// BaselineSec is the unprotected inference time.
	BaselineSec float64
	// DetectionSec is the added detection time (Δ of Tables IV/V).
	DetectionSec float64
	// TotalSec is baseline + detection.
	TotalSec float64
}

// SimulateInference prices one batch-1 inference of the full-size model
// described by tab: compute cycles from the MAC counts plus the DRAM
// streaming of all weights through the hierarchy.
func (c CostModel) SimulateInference(tab *model.ShapeTable) InferenceResult {
	var ws weightStream
	var cycles float64
	for _, l := range tab.Layers {
		compute := float64(l.MACs) * c.CyclesPerMAC
		mem := float64(ws.read(l.Weights))
		// Weight streaming overlaps compute (double buffering); the layer
		// is bound by the slower of the two.
		cycles += max(compute, mem)
	}
	sec := c.Seconds(cycles)
	return InferenceResult{BaselineSec: sec, TotalSec: sec}
}

// withDetection prices the inference over tab with detCycles of detection
// added to it.
func (c CostModel) withDetection(tab *model.ShapeTable, detCycles float64) InferenceResult {
	base, det := c.SimulateInference(tab).BaselineSec, c.Seconds(detCycles)
	return InferenceResult{BaselineSec: base, DetectionSec: det, TotalSec: base + det}
}

// RADARConfig selects the detection variant being priced.
type RADARConfig struct {
	// G is the group size.
	G int
	// Interleave prices the interleaved gather pass.
	Interleave bool
	// SigBits is 2 or 3 (cost identical; storage differs).
	SigBits int
}

// Interleave surcharge constants (cycles per weight). Interleaving adds
// index arithmetic on every weight plus a gather whose locality depends on
// whether the layer fits in the 64 KB L2: small CIFAR-scale layers gather
// out of cache cheaply, the multi-megabyte ImageNet layers walk DRAM. This
// is the paper's asymmetric interleave cost (Table IV: +1.1 ms on
// ResNet-20 vs +41 ms on ResNet-18).
const (
	interleaveIndexCycles = 4.0  // per-weight index arithmetic
	interleaveL2Gather    = 2.0  // per-weight gather, layer fits in L2
	interleaveDRAMGather  = 24.0 // per-weight gather, layer exceeds L2
	l2CapacityBytes       = 64 * 1024
)

// SimulateRADAR prices inference with RADAR detection embedded: the
// checksum accumulation rides the weight fetch; interleaving adds index
// math plus a gather priced by where the layer lives in the hierarchy.
func (c CostModel) SimulateRADAR(tab *model.ShapeTable, cfg RADARConfig) InferenceResult {
	var detCycles float64
	for _, l := range tab.Layers {
		cores := 1.0
		if l.Weights >= c.ParallelThreshold {
			cores = float64(c.Cores)
		}
		groups := (l.Weights + cfg.G - 1) / cfg.G
		perWeight := c.ChecksumCyclesPerWeight
		if cfg.Interleave {
			perWeight += interleaveIndexCycles
			if l.Weights > l2CapacityBytes {
				perWeight += interleaveDRAMGather
			} else {
				perWeight += interleaveL2Gather
			}
		}
		cyc := float64(l.Weights)*perWeight + float64(groups)*c.GroupCycles
		detCycles += cyc / cores
	}
	return c.withDetection(tab, detCycles)
}

// SimulateCRC prices inference with a bit-serial CRC check over every
// group. The CRC's shift-register dependency chain serializes within a
// group and the reference implementations check groups in fetch order on
// one core — the architectural disadvantage versus RADAR's trivially
// parallel additive checksum.
func (c CostModel) SimulateCRC(tab *model.ShapeTable, g int) InferenceResult {
	var detCycles float64
	for _, l := range tab.Layers {
		groups := (l.Weights + g - 1) / g
		detCycles += float64(l.Weights)*c.CRCCyclesPerWeight + float64(groups)*c.GroupCycles
	}
	return c.withDetection(tab, detCycles)
}

// OverheadPercent returns the detection overhead relative to baseline.
func (r InferenceResult) OverheadPercent() float64 {
	if r.BaselineSec == 0 {
		return 0
	}
	return 100 * r.DetectionSec / r.BaselineSec
}
