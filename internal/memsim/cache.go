// Package memsim is the system-level timing substrate standing in for the
// paper's gem5 simulation (8× Arm Cortex-M4F @ 1 GHz, 32 KB L1 + 64 KB L2;
// see README.md §Experiments). It provides a trace-driven set-associative
// cache hierarchy, a bank/row-buffer DRAM device, and a calibrated cost model
// that prices inference, RADAR detection and CRC detection over the
// *full-size* ResNet-20/ResNet-18 layer shape tables — reproducing
// Table IV and Table V. The same substrate prices the attacker:
// internal/adversary's RateModel derives rowhammer flip throughput from
// DRAMTiming's row-conflict latency and CostModel's clock.
package memsim

// Cache is a set-associative cache with LRU replacement, simulated at
// line granularity.
type Cache struct {
	// LineSize is the cache line size in bytes.
	LineSize int
	// Sets is the number of sets.
	Sets int
	// Ways is the associativity.
	Ways int

	// tags[set][way] holds line tags; lru[set][way] holds recency stamps.
	tags  [][]uint64
	valid [][]bool
	lru   [][]uint64
	clock uint64

	// Hits and Misses count accesses.
	Hits, Misses uint64
}

// NewCache builds a cache of the given total size in bytes.
func NewCache(sizeBytes, lineSize, ways int) *Cache {
	sets := sizeBytes / lineSize / ways
	if sets < 1 {
		sets = 1
	}
	c := &Cache{LineSize: lineSize, Sets: sets, Ways: ways}
	c.tags = make([][]uint64, sets)
	c.valid = make([][]bool, sets)
	c.lru = make([][]uint64, sets)
	for i := range c.tags {
		c.tags[i] = make([]uint64, ways)
		c.valid[i] = make([]bool, ways)
		c.lru[i] = make([]uint64, ways)
	}
	return c
}

// Access touches the byte address and reports whether it hit. On a miss the
// line is installed (allocate-on-miss) with LRU eviction.
func (c *Cache) Access(addr uint64) bool {
	c.clock++
	line := addr / uint64(c.LineSize)
	set := int(line % uint64(c.Sets))
	tag := line / uint64(c.Sets)
	for w := 0; w < c.Ways; w++ {
		if c.valid[set][w] && c.tags[set][w] == tag {
			c.lru[set][w] = c.clock
			c.Hits++
			return true
		}
	}
	c.Misses++
	// Install with LRU eviction.
	victim := 0
	oldest := c.lru[set][0]
	for w := 0; w < c.Ways; w++ {
		if !c.valid[set][w] {
			victim = w
			break
		}
		if c.lru[set][w] < oldest {
			victim, oldest = w, c.lru[set][w]
		}
	}
	c.tags[set][victim] = tag
	c.valid[set][victim] = true
	c.lru[set][victim] = c.clock
	return false
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	for i := range c.tags {
		for w := range c.tags[i] {
			c.valid[i][w] = false
			c.lru[i][w] = 0
		}
	}
	c.Hits, c.Misses, c.clock = 0, 0, 0
}

// Hierarchy is an L1+L2+DRAM memory system with per-level latencies.
type Hierarchy struct {
	// L1 and L2 are the cache levels.
	L1, L2 *Cache
	// L1Lat, L2Lat and DRAMLat are access latencies in cycles.
	L1Lat, L2Lat, DRAMLat int
	// Cycles accumulates total memory stall cycles.
	Cycles uint64
}

// NewHierarchy builds the paper's memory system: 32 KB L1, 64 KB L2,
// 64-byte lines.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{
		L1:    NewCache(32*1024, 64, 4),
		L2:    NewCache(64*1024, 64, 8),
		L1Lat: 1, L2Lat: 10, DRAMLat: 30,
	}
}

// Access simulates one byte access and returns its latency in cycles.
func (h *Hierarchy) Access(addr uint64) int {
	lat := h.L1Lat
	if !h.L1.Access(addr) {
		lat += h.L2Lat
		if !h.L2.Access(addr) {
			lat += h.DRAMLat
		}
	}
	h.Cycles += uint64(lat)
	return lat
}

// StreamBytes simulates a sequential read of n bytes starting at addr and
// returns the total latency. Only one access per cache line is charged
// (hardware streams within a line).
func (h *Hierarchy) StreamBytes(addr uint64, n int) uint64 {
	var total uint64
	line := uint64(h.L1.LineSize)
	for off := uint64(0); off < uint64(n); off += line {
		total += uint64(h.Access(addr + off))
	}
	return total
}

// StrideBytes simulates n accesses with the given byte stride starting at
// addr (the interleaved gather pattern) and returns total latency. The
// production cost model prices interleave gathers analytically (see the
// interleave surcharge constants in costmodel.go); this trace-driven form
// is kept as the reference those constants are validated against in the
// package tests.
func (h *Hierarchy) StrideBytes(addr uint64, n, stride int) uint64 {
	var total uint64
	for i := 0; i < n; i++ {
		total += uint64(h.Access(addr + uint64(i*stride)))
	}
	return total
}

// Reset clears both cache levels and the stall counter.
func (h *Hierarchy) Reset() {
	h.L1.Reset()
	h.L2.Reset()
	h.Cycles = 0
}
