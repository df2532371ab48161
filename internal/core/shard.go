package core

import (
	"bytes"
	"sync/atomic"

	"radar/internal/cpu"
)

// defaultShardGroups is the number of checksum groups per parallel scan
// shard. At the paper's ResNet-18 deployment point (G=512) one shard
// covers ~half a megabyte of weights — big enough to amortize scheduling,
// small enough that a large layer still splits across the pool.
const defaultShardGroups = 1024

// shard is one unit of parallel scan work: the group range [lo, hi) of one
// layer. Shards are totally ordered by (layer, lo); concatenating per-shard
// results in that order yields exactly the sequential scan order (layer
// ascending, group ascending).
type shard struct {
	layer, lo, hi int
}

// appendLayerShards appends one layer's group range, split into chunks of
// at most shardGroups groups in ascending group order, onto dst. Appending
// into a caller-owned (pooled) slice keeps steady-state scans
// allocation-free.
func (p *Protector) appendLayerShards(dst []shard, li int) []shard {
	sg := p.shardGroups
	if sg <= 0 {
		sg = defaultShardGroups
	}
	n := p.shape.NumGroups(len(p.Model.Layers[li].Q))
	for lo := 0; lo < n; lo += sg {
		hi := lo + sg
		if hi > n {
			hi = n
		}
		dst = append(dst, shard{layer: li, lo: lo, hi: hi})
	}
	return dst
}

// SignaturesRange computes the signatures of groups [lo, hi) of a layer —
// the per-shard unit of the parallel engine. It returns exactly
// Signatures(q)[lo:hi]: the checksum of each group accumulates the same
// terms in the same row order, so the parallel scan is byte-identical to
// the sequential one. The heavy lifting is the SWAR kernel in swar.go,
// which consumes 8 weights per uint64 load; see SignaturesRangeRef for the
// retained scalar reference.
func (s Scheme) SignaturesRange(q []int8, lo, hi int) []uint8 {
	lo, hi, ok := s.clampRange(q, lo, hi)
	if !ok {
		return nil
	}
	out := make([]uint8, hi-lo)
	pl := s.compile(len(q))
	pl.signaturesInto(out, q, lo)
	return out
}

// SignaturesRangeRef is the scalar reference kernel: the PR 1 row-segment
// walk, one multiply-add per weight. It is retained as the differential
// baseline the SWAR kernel is property-tested against and as the
// "old kernel" side of before/after measurements; results are
// bit-identical to SignaturesRange.
func (s Scheme) SignaturesRangeRef(q []int8, lo, hi int) []uint8 {
	lo, hi, ok := s.clampRange(q, lo, hi)
	if !ok {
		return nil
	}
	l := len(q)
	n := s.NumGroups(l)
	sums := make([]int32, hi-lo)
	if !s.Interleave {
		for j := lo; j < hi; j++ {
			base := j * s.G
			end := base + s.G
			if end > l {
				end = l
			}
			var m int32
			for i := base; i < end; i++ {
				m += s.maskSign(i-base) * int32(q[i])
			}
			sums[j-lo] = m
		}
	} else {
		rows := (l + n - 1) / n
		for r := 0; r < rows; r++ {
			sign := s.maskSign(r)
			base := r * n
			// Column of group lo in row r; consecutive groups occupy
			// consecutive columns (mod n), so the inner loop is sequential.
			c := ((lo-s.Offset*r)%n + n) % n
			for j := lo; j < hi; j++ {
				if i := base + c; i < l {
					sums[j-lo] += sign * int32(q[i])
				}
				c++
				if c == n {
					c = 0
				}
			}
		}
	}
	out := make([]uint8, hi-lo)
	for k, m := range sums {
		out[k] = s.Binarize(m)
	}
	return out
}

// clampRange validates the layer and normalizes a group range the way the
// historical SignaturesRange did: hi clamped to NumGroups, empty or
// inverted ranges rejected.
func (s Scheme) clampRange(q []int8, lo, hi int) (int, int, bool) {
	l := len(q)
	s.Validate(l)
	if n := s.NumGroups(l); hi > n {
		hi = n
	}
	if lo < 0 || lo >= hi {
		return 0, 0, false
	}
	return lo, hi, true
}

// scanShard recomputes one shard's signatures and compares them against
// the golden slice as they are produced — no signature buffer is
// materialized, so a clean shard allocates nothing. Flagged groups are
// returned in ascending group order. With lock set the layer is read under
// its read lock (released on a panic too).
func (p *Protector) scanShard(sh shard, lock bool) []GroupID {
	if lock {
		p.locks[sh.layer].RLock()
		defer p.locks[sh.layer].RUnlock()
	}
	l := p.Model.Layers[sh.layer]
	pl := &p.plans[sh.layer]
	golden := p.Golden[sh.layer]
	var out []GroupID
	var sig sigChunk
	for lo := sh.lo; lo < sh.hi; lo += kernelChunk {
		g := golden[lo:min(lo+kernelChunk, sh.hi)]
		pl.signatures(l.Q, lo, lo+len(g), &sig)
		if bytes.Equal(sig[:len(g)], g) {
			continue // one memory compare per clean chunk
		}
		for k := range g {
			if sig[k] != g[k] {
				out = append(out, GroupID{Layer: sh.layer, Group: lo + k})
			}
		}
	}
	return out
}

// runShards runs the shard list on the worker pool and merges the
// per-shard results in shard order. Because shards arrive sorted by
// (layer, lo) and each shard reports ascending groups, the merged list is
// deterministically sorted by layer then group — identical to a
// single-goroutine scan regardless of worker count or scheduling.
func (p *Protector) runShards(sh []shard, sc *scanScratch, lock bool) []GroupID {
	results := sc.resultsBuf(len(sh))
	cd := p.shardCountdown(sh)
	if workers := p.poolSize(len(sh)); workers <= 1 {
		// Run the loop inline rather than through cpu.Parallel: its fan-out
		// path captures the task closure in goroutines, so a closure
		// shared with it would be heap-allocated even when only the
		// sequential path runs, breaking the zero-alloc steady state.
		// A list of at most one shard has nothing to fan out either.
		for k := range sh {
			results[k] = p.scanShard(sh[k], lock)
			cd.shardDone(k)
		}
	} else {
		cpu.Parallel(workers, len(sh), func(_, k int) {
			results[k] = p.scanShard(sh[k], lock)
			cd.shardDone(k)
		})
	}
	var flagged []GroupID
	for _, r := range results {
		flagged = append(flagged, r...)
	}
	if len(flagged) > 0 {
		p.stats.groupsFlagged.Add(int64(len(flagged)))
	}
	return flagged
}

// shardCountdown tracks, for one scan/protect pass, how many shards of
// each layer are still outstanding, and fires the pass's OnLayerScanned
// hook when a layer's count reaches zero. A nil countdown (hook unset) is
// valid and free — shardDone no-ops — so the zero-alloc steady state of
// hookless scans is preserved.
type shardCountdown struct {
	fn     func(layer int)
	layers []int          // slot → layer index
	left   []atomic.Int32 // slot → shards outstanding
	idx    []int          // shard k → slot
}

// shardCountdown builds the countdown for a shard list (sorted by layer,
// possibly covering a non-contiguous layer subset, e.g. ScanDirty).
// Returns nil when no hook is configured.
func (p *Protector) shardCountdown(sh []shard) *shardCountdown {
	if p.onLayerScanned == nil || len(sh) == 0 {
		return nil
	}
	c := &shardCountdown{fn: p.onLayerScanned, idx: make([]int, len(sh))}
	var counts []int32
	for k, s := range sh {
		if len(c.layers) == 0 || c.layers[len(c.layers)-1] != s.layer {
			c.layers = append(c.layers, s.layer)
			counts = append(counts, 0)
		}
		counts[len(counts)-1]++
		c.idx[k] = len(c.layers) - 1
	}
	c.left = make([]atomic.Int32, len(c.layers))
	for i, n := range counts {
		c.left[i].Store(n)
	}
	return c
}

// shardDone records completion of shard k, firing the hook if it was the
// layer's last outstanding shard. Safe on a nil countdown.
func (c *shardCountdown) shardDone(k int) {
	if c == nil {
		return
	}
	slot := c.idx[k]
	if c.left[slot].Add(-1) == 0 {
		c.fn(c.layers[slot])
	}
}
