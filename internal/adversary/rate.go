package adversary

import (
	"time"

	"radar/internal/memsim"
)

// hammerThreshold is the aggressor activation count at which a victim bit
// flips (real DDR3/DDR4 parts: tens to hundreds of thousands).
const hammerThreshold = 50_000

// Row-access latencies of a DDR3-1600-like bank at a 1 GHz clock, in
// cycles: CAS, precharge (RP) and activate (RCD) are 14 each. Opening a
// row in a closed bank pays RCD + CAS; a row conflict — another row is
// open — pays RP + RCD + CAS.
const (
	rowMissCycles     = 14 + 14
	rowConflictCycles = 14 + 14 + 14
)

// RateModel prices attack flips through rowhammer physics: one induced
// flip costs hammerThreshold activations of each of the two aggressor
// rows (double-sided rowhammer) in one bank. The first access opens the
// closed bank; every later one is a row conflict, because alternating
// two rows of one bank is precisely what defeats the open-row buffer —
// which is both why rowhammer works and why it is slow. memsim.CostModel
// supplies the clock. The model only prices a flip; Mount lands it, as a
// direct write that no write observer sees.
type RateModel struct {
	// Cost supplies the core clock for cycle→seconds conversion.
	Cost memsim.CostModel
}

// DefaultRateModel prices flips on the calibrated simulation defaults:
// DDR3-1600-like timing at a 1 GHz clock, 50k-activation threshold
// (≈ 4.2 ms per flip, ≈ 23 flips inside a 100 ms scrub window).
func DefaultRateModel() *RateModel {
	return &RateModel{Cost: memsim.DefaultCostModel()}
}

// SecondsPerFlip returns the wall-clock cost of inducing one bit flip:
// one row miss, then 2·hammerThreshold − 1 row conflicts.
func (r *RateModel) SecondsPerFlip() float64 {
	cycles := rowMissCycles + (2*hammerThreshold-1)*rowConflictCycles
	return r.Cost.Seconds(float64(cycles))
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
