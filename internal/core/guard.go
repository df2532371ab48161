package core

import "sync"

// LayerGuard is the read-write coordination layer between concurrent
// consumers of one quantized model: inference engines and scans *read*
// layer weights under a per-layer read lock, while recovery zeroing and
// injected attack writes take the per-layer write lock. A protector that
// has been handed a guard via Coordinate routes every scan read and every
// Recover write through it, which is what makes serving inference
// concurrently with DetectAndRecover race-free by construction.
//
// Locks are per layer, so recovering layer i never stalls inference that
// is fetching layer j. All methods are safe on a nil *LayerGuard (they
// no-op), so single-threaded callers pay nothing.
type LayerGuard struct {
	mus []sync.RWMutex
}

// NewLayerGuard returns a guard for a model with the given layer count.
func NewLayerGuard(layers int) *LayerGuard {
	return &LayerGuard{mus: make([]sync.RWMutex, layers)}
}

// RLockLayer takes the read lock of layer li (weight fetch, scan).
func (g *LayerGuard) RLockLayer(li int) {
	if g != nil {
		g.mus[li].RLock()
	}
}

// RUnlockLayer releases the read lock of layer li.
func (g *LayerGuard) RUnlockLayer(li int) {
	if g != nil {
		g.mus[li].RUnlock()
	}
}

// LockLayer takes the write lock of layer li (recovery, attack injection).
func (g *LayerGuard) LockLayer(li int) {
	if g != nil {
		g.mus[li].Lock()
	}
}

// UnlockLayer releases the write lock of layer li.
func (g *LayerGuard) UnlockLayer(li int) {
	if g != nil {
		g.mus[li].Unlock()
	}
}

// LockAll write-locks every layer in ascending order — the whole-model
// exclusive section used to run an adversary (whose target layers are
// unknown in advance) against a live model. Unlock with UnlockAll.
// Ascending acquisition order makes LockAll deadlock-free against the
// single-layer lockers, which never hold two layers at once.
func (g *LayerGuard) LockAll() {
	if g != nil {
		for i := range g.mus {
			g.mus[i].Lock()
		}
	}
}

// UnlockAll releases every layer's write lock.
func (g *LayerGuard) UnlockAll() {
	if g != nil {
		for i := len(g.mus) - 1; i >= 0; i-- {
			g.mus[i].Unlock()
		}
	}
}

// Coordinate attaches a guard to the protector: from then on scans take
// each layer's read lock while recomputing its signatures, and Recover
// takes the write lock while zeroing. Attach the guard before the
// protector is used from multiple goroutines; the guard must cover at
// least as many layers as the model.
func (p *Protector) Coordinate(g *LayerGuard) { p.guard = g }

// Guard returns the coordination guard attached via Coordinate (nil when
// uncoordinated).
func (p *Protector) Guard() *LayerGuard { return p.guard }

// FetchLayer is the verified weight fetch — the run of RADAR inside the
// inference weight read (Tables IV/V). It takes layer li's read lock and
// recomputes the layer's signatures inline on the caller's goroutine from
// the precompiled plan: no worker fan-out, no scratch pool, no allocation,
// and the weights it pulls through the cache are the ones the caller's
// convolution reads next. A clean layer returns (0, 0, false) with the
// read lock still held. On a mismatch it trades the read lock for the
// write lock, rescans and repairs the layer (as VerifyAndRecoverLayer) and
// returns the flagged-group and zeroed-weight counts with exclusive set and
// the write lock still held. Either way the caller consumes the weights under
// the hold — nothing can land between the check and the use — and then
// releases it through Guard(): RUnlockLayer, or UnlockLayer when exclusive.
func (p *Protector) FetchLayer(li int) (flagged, zeroed int, exclusive bool) {
	p.guard.RLockLayer(li)
	if q := p.Model.Layers[li].Q; p.plans[li].verify(q, p.Golden[li]) {
		p.stats.scans.Add(1)
		p.stats.bytesScanned.Add(int64(len(q)))
		return 0, 0, false
	}
	// The rescan under the write lock accounts for the fetch, once.
	p.guard.RUnlockLayer(li)
	p.guard.LockLayer(li)
	groups := p.scan(li, true)
	return len(groups), p.repair(groups, true), true
}

// VerifyAndRecoverLayer rescans layer li under its exclusive lock and
// immediately repairs any flagged groups, returning the flagged groups and
// the number of weights zeroed. Holding the write lock for the scan
// (rather than the read lock) makes detection and recovery atomic with
// respect to concurrent writers — no flip can land between the scan and
// the repair. It is the escalation path of FetchLayer.
func (p *Protector) VerifyAndRecoverLayer(li int) (flagged []GroupID, zeroed int) {
	p.guard.LockLayer(li)
	defer p.guard.UnlockLayer(li)
	flagged = p.scan(li, true)
	return flagged, p.repair(flagged, true)
}

// DetectAndRecoverExclusive is DetectAndRecover for a caller that already
// holds exclusive access to the whole model (e.g. LayerGuard.LockAll): no
// guard locks are taken, so it cannot deadlock against the caller's own
// write exclusion. The serving layer's live rekey uses it to close the
// window between the ordinary (guard-routed) pre-rekey scrub and the
// golden-signature recompute — any flip that lands in that window is
// repaired here, under the same exclusion the recompute runs in, instead
// of being laundered into the fresh goldens.
func (p *Protector) DetectAndRecoverExclusive() (flagged []GroupID, zeroed int) {
	flagged = p.scan(allLayers, true)
	return flagged, p.repair(flagged, true)
}

// Stats is a snapshot of the protector's activity counters, the
// scrubber-facing accounting a serving layer exports as metrics.
type Stats struct {
	// Scans counts scan passes, one per call of Scan, ScanLayer, ScanDirty,
	// DetectAndRecover, DetectAndRecoverExclusive, VerifyAndRecoverLayer or
	// FetchLayer. A ScanDirty that found no dirty layers still counts: the
	// protector did decide all layers were clean.
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
