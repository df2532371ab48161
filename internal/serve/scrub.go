package serve

import (
	"time"

	"radar/internal/core"
)

// scrubLoop is the background scrubber: every scrub interval it runs one
// scrub tick. It exits when Stop closes scrubStop.
func (s *Server) scrubLoop() {
	defer s.scrubWG.Done()
	ticker := time.NewTicker(s.cfg.scrubInterval)
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

// Scrub runs one scrub cycle, the protector's rolling sweep (see
// core.Protector.SweepTick), and reports what it found, in visit order. A
// tick (full=false) sweeps at the scrub interval, so a hot model that verified
// fetches keep fresh costs nothing; a full cycle, and any cycle with the
// scrubber off (WithScrub(0)), covers every layer. Exported so tests and
// operators (POST /v1/admin/scrub) can force a cycle.
func (s *Server) Scrub(full bool) (flagged []core.GroupID, zeroed int) {
	begun := time.Now()
	iv := s.cfg.scrubInterval
	if full {
		iv = 0
	}
	sw := s.prot.SweepTick(begun, iv)
	s.met.scrubCycles.Inc()
	s.met.scrubScanned.Add(int64(sw.Scanned))
	s.met.scrubFresh.Add(int64(sw.Fresh))
	s.met.scrubDeferred.Add(int64(sw.Deferred))
	s.met.scrubFlagged.Add(int64(len(sw.Flagged)))
	s.met.scrubZeroed.Add(int64(sw.Zeroed))
	s.scrubNs.Add(int64(time.Since(begun)))
	return sw.Flagged, sw.Zeroed
}
