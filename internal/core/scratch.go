package core

import "sync"

// scanScratch is the reusable working memory of one scan operation: the
// layers it covers, their shard list and the per-shard result table.
// Instances cycle through a sync.Pool so steady-state ScanDirty and full
// scans allocate nothing (verified by testing.AllocsPerRun in
// swar_test.go); the checksum kernels work in a few KB of their callers'
// stack — lane accumulators and one chunk of signature bytes — and need
// no pooled scratch. Flagged GroupID slices are the one exception — they
// are freshly allocated because they escape to the caller, and a clean
// scan never creates any.
type scanScratch struct {
	layers  []int
	shards  []shard
	results [][]GroupID
}

var scanScratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

func getScratch() *scanScratch {
	return scanScratchPool.Get().(*scanScratch)
}

// putScratch returns the scratch to the pool, dropping references to
// flagged slices that escaped to callers so the pool does not pin them.
func putScratch(sc *scanScratch) {
	for i := range sc.results {
		sc.results[i] = nil
	}
	sc.shards = sc.shards[:0]
	sc.layers = sc.layers[:0]
	scanScratchPool.Put(sc)
}

// resultsBuf returns a length-n per-shard result table backed by the
// scratch, growing the backing array only on high-water marks.
func (sc *scanScratch) resultsBuf(n int) [][]GroupID {
	if cap(sc.results) < n {
		sc.results = make([][]GroupID, n)
	}
	sc.results = sc.results[:n]
	return sc.results
}
