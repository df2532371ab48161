package memsim

// DRAMTiming models a DDR-style device at the granularity Table IV/V
// need: banks with open-row buffers, where an access to the open row costs
// a CAS latency only, and a row conflict pays precharge + activate + CAS.
// It refines the weight stream's flat 30-cycle DRAM latency for
// traffic-pattern studies (sequential streams hit the row buffer almost
// always; interleaved
// gathers with large strides conflict constantly — the microarchitectural
// root of the paper's asymmetric interleave cost). It also prices the
// attacker: alternating activations of two rows in one bank are all row
// conflicts, which is what makes rowhammer both effective and slow, and
// internal/adversary's RateModel turns that conflict latency into a
// flips-per-scrub-window budget.
type DRAMTiming struct {
	// Banks is the number of banks.
	Banks int
	// RowBytes is the row-buffer size.
	RowBytes int
	// CASLat, RPLat and RCDLat are the access-phase latencies in cycles.
	CASLat, RPLat, RCDLat int

	openRow []int64 // per bank; -1 = closed
	// RowHits and RowConflicts count access outcomes.
	RowHits, RowConflicts, RowMisses uint64
}

// NewDRAMTiming builds a DDR3-1600-like device at a 1 GHz core clock.
func NewDRAMTiming() *DRAMTiming {
	d := &DRAMTiming{
		Banks: 8, RowBytes: 8192,
		CASLat: 14, RPLat: 14, RCDLat: 14,
	}
	d.openRow = make([]int64, d.Banks)
	d.Reset()
	return d
}

// Access returns the latency of reading the byte address under an
// open-page policy.
func (d *DRAMTiming) Access(addr uint64) int {
	rowGlobal := int64(addr) / int64(d.RowBytes)
	bank := int(rowGlobal) % d.Banks
	row := rowGlobal / int64(d.Banks)
	switch d.openRow[bank] {
	case row:
		d.RowHits++
		return d.CASLat
	case -1:
		d.RowMisses++
		d.openRow[bank] = row
		return d.RCDLat + d.CASLat
	default:
		d.RowConflicts++
		d.openRow[bank] = row
		return d.RPLat + d.RCDLat + d.CASLat
	}
}

// Reset closes all rows and clears counters.
func (d *DRAMTiming) Reset() {
	for i := range d.openRow {
		d.openRow[i] = -1
	}
	d.RowHits, d.RowConflicts, d.RowMisses = 0, 0, 0
}

// StreamCost returns the total cycles to read n sequential bytes at line
// granularity (64 B per access, the cache-line fill unit).
func (d *DRAMTiming) StreamCost(addr uint64, n int) uint64 {
	return d.GatherCost(addr, (n+63)/64, 64)
}

// GatherCost returns the total cycles for n accesses with the given byte
// stride — the interleaved checksum's access pattern.
func (d *DRAMTiming) GatherCost(addr uint64, n, stride int) uint64 {
	var total uint64
	for i := 0; i < n; i++ {
		total += uint64(d.Access(addr + uint64(i*stride)))
	}
	return total
}

// RowHitRate returns the fraction of accesses served from open rows.
func (d *DRAMTiming) RowHitRate() float64 {
	total := d.RowHits + d.RowConflicts + d.RowMisses
	if total == 0 {
		return 0
	}
	return float64(d.RowHits) / float64(total)
}
