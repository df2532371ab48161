package adversary

import (
	"time"

	"radar/internal/memsim"
)

// hammerThreshold is the aggressor activation count at which a victim bit
// flips (real DDR3/DDR4 parts: tens to hundreds of thousands).
const hammerThreshold = 50_000

// RateModel prices attack flips through rowhammer physics: one induced
// flip costs hammerThreshold activations of each of the two aggressor
// rows (double-sided rowhammer), every access a DRAM row conflict paying
// the full precharge+activate+CAS path — alternating two rows of one bank
// is precisely what defeats the open-row buffer, which is both why
// rowhammer works and why it is slow. The memsim.DRAMTiming device
// supplies the conflict latency and memsim.CostModel the clock. The model
// only prices a flip; Mount lands it, as a direct write that no write
// observer sees.
type RateModel struct {
	// Cost supplies the core clock for cycle→seconds conversion.
	Cost memsim.CostModel

	spf float64 // memoized seconds per flip
}

// DefaultRateModel prices flips on the calibrated simulation defaults:
// DDR3-1600-like timing at a 1 GHz clock, 50k-activation threshold
// (≈ 4.2 ms per flip, ≈ 23 flips inside a 100 ms scrub window).
func DefaultRateModel() *RateModel {
	return &RateModel{Cost: memsim.DefaultCostModel()}
}

// SecondsPerFlip returns the wall-clock cost of inducing one bit flip.
func (r *RateModel) SecondsPerFlip() float64 {
	if r.spf == 0 {
		d := memsim.NewDRAMTiming()
		// Two aggressor rows of one bank, activated alternately: rows
		// rowGlobal 0 and 2·Banks map to bank 0, rows 0 and 2 (the rows
		// flanking victim row 1).
		above := uint64(0)
		below := uint64(2 * d.Banks * d.RowBytes)
		var cycles uint64
		for i := 0; i < hammerThreshold; i++ {
			cycles += uint64(d.Access(above))
			cycles += uint64(d.Access(below))
		}
		r.spf = r.Cost.Seconds(float64(cycles))
	}
	return r.spf
}

// FlipsPerWindow converts a scrub interval into the flip budget an
// attacker can spend inside one window (minimum 1 — a patient attacker
// spreads a slow flip across windows). A non-positive interval means the
// window length is unknown; the cap is waived.
func (r *RateModel) FlipsPerWindow(window time.Duration) int {
	if window <= 0 {
		return 0
	}
	n := int(window.Seconds() / r.SecondsPerFlip())
	if n < 1 {
		return 1
	}
	return n
}
