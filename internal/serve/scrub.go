package serve

import (
	"time"

	"radar/internal/core"
)

// scrubLoop is the background scrubber: every ScrubInterval it runs one
// scrub cycle, alternating cheap incremental scans with a periodic full
// sweep. It exits when Stop closes scrubStop.
func (s *Server) scrubLoop() {
	defer s.scrubWG.Done()
	ticker := time.NewTicker(s.cfg.ScrubInterval)
	defer ticker.Stop()
	cycle := 0
	for {
		select {
		case <-s.scrubStop:
			return
		case <-ticker.C:
			s.Scrub(cycle%s.cfg.ScrubFullEvery == 0)
			cycle++
		}
	}
}

// Scrub runs one scrub cycle and reports what it found. A full cycle runs
// DetectAndRecover over every layer, catching even corruption that
// bypassed the model API; an incremental cycle scans only layers written
// since their last scan and recovers whatever they flag. Both paths go
// through the layer guard, so scrubbing never stalls traffic for longer
// than one layer's recovery. Exported so tests, benchmarks and operators
// (via POST /v1/admin/scrub) can force a cycle without waiting for the
// ticker.
func (s *Server) Scrub(full bool) (flagged []core.GroupID, zeroed int) {
	if full {
		begun := time.Now()
		flagged, zeroed = s.prot.DetectAndRecover()
		s.markVerified(begun)
	} else {
		flagged = s.prot.ScanDirty()
		if len(flagged) > 0 {
			zeroed = s.prot.Recover(flagged)
		}
	}
	s.met.scrubCycles.Inc()
	if len(flagged) > 0 {
		s.met.scrubFlagged.Add(int64(len(flagged)))
		s.met.scrubZeroed.Add(int64(zeroed))
	}
	return flagged, zeroed
}
