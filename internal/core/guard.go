package core

import "time"

// Every Protector owns one read-write lock per layer (Protector.locks):
// inference fetches and scans read a layer's weights under its read lock,
// while repairs, Rekey and the writers Exclusive admits take write locks.
// Locks are per layer, so recovering layer i never stalls inference that is
// fetching layer j, and serving concurrently with DetectAndRecover is
// race-free by construction. No code path holds two layer locks except
// Exclusive, which takes them all in ascending order.

// Exclusive runs f with every layer write-locked, taken in ascending order
// and released when f returns or panics: the whole-model exclusive section
// in which to run an adversary (whose target layers are unknown in
// advance) against a live model. f must not call back into a locking
// entry point of p; the single-layer lockers never hold two layers at
// once, so the ascending order cannot deadlock against them.
func (p *Protector) Exclusive(f func()) {
	for i := range p.locks {
		p.locks[i].Lock()
	}
	defer func() {
		for i := len(p.locks) - 1; i >= 0; i-- {
			p.locks[i].Unlock()
		}
	}()
	f()
}

// FetchLayer is the verified weight fetch — the run of RADAR inside the
// inference weight read (Tables IV/V). It takes layer li's read lock and
// recomputes the layer's signatures inline on the caller's goroutine from
// the precompiled plan: no worker fan-out, no scratch pool, no allocation,
// and the weights it pulls through the cache are the ones the caller's
// convolution reads next. On a mismatch it drops the read lock, rescans and
// repairs the layer under the write lock (as VerifyAndRecoverLayer), then
// verifies the repaired bytes again under the read lock. It returns the
// flagged-group and zeroed-weight counts always holding the read lock, so
// the caller consumes exactly the bytes that last verified — nothing can
// land between the check and the use — and then drops it with
// ReleaseLayer. Once the read lock is held, so the check sees the bytes as
// they are, the layer's last-verified stamp advances to at, the start of
// the caller's pass.
func (p *Protector) FetchLayer(li int, at time.Time) (flagged, zeroed int) {
	p.locks[li].RLock()
	p.stamp(li, at)
	q := p.Model.Layers[li].Q
	if p.plans[li].verify(q, p.Golden[li]) {
		p.stats.scans.Add(1)
		p.stats.bytesScanned.Add(int64(len(q)))
		return 0, 0
	}
	// The rescan under the write lock accounts for the fetch, once; the
	// check after it does not. Only a writer that took the write lock in
	// the gap between the two can make that check fail and repeat the loop.
	for clean := false; !clean; clean = p.plans[li].verify(q, p.Golden[li]) {
		p.locks[li].RUnlock()
		f, z := p.VerifyAndRecoverLayer(li)
		flagged, zeroed = flagged+len(f), zeroed+z
		p.locks[li].RLock()
	}
	return flagged, zeroed
}

// ReleaseLayer drops the read lock FetchLayer returned holding.
func (p *Protector) ReleaseLayer(li int) { p.locks[li].RUnlock() }

// VerifyAndRecoverLayer rescans layer li under its exclusive lock and
// immediately repairs any flagged groups, returning the flagged groups and
// the number of weights zeroed. Holding the write lock for the scan
// (rather than the read lock) makes detection and recovery atomic with
// respect to concurrent writers — no flip can land between the scan and
// the repair. It is the escalation path of FetchLayer.
func (p *Protector) VerifyAndRecoverLayer(li int) (flagged []GroupID, zeroed int) {
	p.locks[li].Lock()
	defer p.locks[li].Unlock()
	flagged = p.scan(li, true)
	return flagged, p.repair(flagged, true)
}

// Stats is a snapshot of the protector's activity counters, the
// scrubber-facing accounting a serving layer exports as metrics.
type Stats struct {
	// Scans counts scan passes, one per call of Scan, ScanLayer, ScanDirty,
	// DetectAndRecover, VerifyAndRecoverLayer, FetchLayer or Rekey (a
	// SweepTick counts one per layer it scans). A ScanDirty that found no
	// dirty layers still counts: the protector did decide all layers were
	// clean.
	Scans int64
	// BytesScanned counts weight bytes covered by scans (one byte per int8
	// weight) — divided by uptime it is the scan-bytes/s figure the serving
	// metrics export.
	BytesScanned int64
	// GroupsFlagged counts signature mismatches reported across all scans.
	GroupsFlagged int64
	// GroupsRecovered counts groups repaired (corrected or zeroed) by
	// Recover or by any of the entry points above that repair.
	GroupsRecovered int64
	// GroupsCorrected counts flagged groups repaired in place by the ECC
	// path (always 0 without Config.Correct); see correct.go.
	GroupsCorrected int64
	// GroupsZeroed counts flagged groups recovered by zeroing — the
	// fallback with correction on, the only path without it.
	GroupsZeroed int64
	// WeightsZeroed counts individual weights zeroed during recovery.
	WeightsZeroed int64
	// Rekeys counts full signature-key rotations (Rekey calls).
	Rekeys int64
}

// Stats returns the current activity counters. Safe to call concurrently
// with scans and recovery.
func (p *Protector) Stats() Stats {
	return Stats{
		Scans:           p.stats.scans.Load(),
		BytesScanned:    p.stats.bytesScanned.Load(),
		GroupsFlagged:   p.stats.groupsFlagged.Load(),
		GroupsRecovered: p.stats.groupsRecovered.Load(),
		GroupsCorrected: p.stats.groupsCorrected.Load(),
		GroupsZeroed:    p.stats.groupsZeroed.Load(),
		WeightsZeroed:   p.stats.weightsZeroed.Load(),
		Rekeys:          p.stats.rekeys.Load(),
	}
}
