package serve

import (
	"cmp"
	"math"
	"slices"
	"time"

	"radar/internal/core"
)

// scrubBytesPerSecond bounds a scrub tick to ScrubInterval × this many weight
// bytes (never under one layer): about ⅛ of one core's G=8 scan rate, so a
// multi-GiB mapped checkpoint is swept at a fixed cost, not once per tick.
const scrubBytesPerSecond = 256 << 20

// scrubLoop is the background scrubber: every ScrubInterval it runs one
// scrub tick. It exits when Stop closes scrubStop.
func (s *Server) scrubLoop() {
	defer s.scrubWG.Done()
	ticker := time.NewTicker(s.cfg.ScrubInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.scrubStop:
			return
		case <-ticker.C:
			s.Scrub(false)
		}
	}
}

// Scrub runs one scrub cycle and reports what it found, in visit order. A
// tick (full=false) skips layers checked within half a ScrubInterval (a whole
// one would skip what the last tick stamped every other time), scans and
// repairs the rest oldest stamp first, and stops once its byte budget is
// covered; the rest leads the next tick. An idle layer's age is thus at most
// max(ScrubInterval, model bytes ÷ scrubBytesPerSecond) plus one tick, and a
// hot model costs nothing. A full cycle, and any cycle with the scrubber off
// (ScrubInterval 0), has no horizon or budget. Scans and repairs go through
// the layer guard, so traffic never stalls longer than one layer's recovery.
// Exported so tests and operators (POST /v1/admin/scrub) can force a cycle.
func (s *Server) Scrub(full bool) (flagged []core.GroupID, zeroed int) {
	begun := time.Now()
	horizon, budget := int64(math.MaxInt64), math.MaxInt
	if iv := s.cfg.ScrubInterval; !full && iv > 0 {
		horizon, budget = begun.Add(-iv/2).UnixNano(), int(iv.Seconds()*scrubBytesPerSecond)
	}
	at := make([]int64, len(s.verified))
	stale := make([]int, 0, len(at))
	for li := range at {
		if at[li] = s.verified[li].Load(); at[li] < horizon {
			stale = append(stale, li)
		}
	}
	slices.SortStableFunc(stale, func(a, b int) int { return cmp.Compare(at[a], at[b]) })
	scanned := 0
	for covered := 0; scanned < len(stale) && (scanned == 0 || covered < budget); scanned++ {
		li, start := stale[scanned], time.Now().UnixNano()
		f := s.prot.ScanLayer(li)
		zeroed += s.prot.Recover(f) // nothing flagged: no lock taken, nothing counted
		flagged = append(flagged, f...)
		s.stampVerified(li, start)
		covered += len(s.model.Layers[li].Q)
	}
	s.met.scrubCycles.Inc()
	s.met.scrubScanned.Add(int64(scanned))
	s.met.scrubFresh.Add(int64(len(at) - len(stale)))
	s.met.scrubDeferred.Add(int64(len(stale) - scanned))
	s.met.scrubFlagged.Add(int64(len(flagged)))
	s.met.scrubZeroed.Add(int64(zeroed))
	s.scrubNs.Add(int64(time.Since(begun)))
	return flagged, zeroed
}
