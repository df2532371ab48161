package serve

import "time"

// verifier is one inference worker's weight-fetch step — the engine's
// qinfer.WeightFetcher. Every stage of every batch goes through
// core.Protector.FetchLayer: the layer's checksum is recomputed under its
// read lock immediately before the stage's convolution reads the same
// bytes, and a mismatch is repaired under the write lock and verified
// again under the read lock the stage then computes under. Nothing is cached and nothing depends on a write
// having announced itself, so a physical flip lives until the next batch,
// not until the next scrub tick.
//
// Each worker owns one verifier and a pass holds one layer at a time, so
// the pass's counts are plain fields; flush publishes them once the pass
// is over.
type verifier struct {
	s *Server
	// at is the running pass's start, the last-verified stamp of every
	// layer it fetches.
	at time.Time
	// scans, flagged and zeroed are the running pass's counts.
	scans, flagged, zeroed int64
}

// FetchLayer implements qinfer.WeightFetcher.
func (v *verifier) FetchLayer(li int) {
	flagged, zeroed := v.s.prot.FetchLayer(li, v.at)
	v.scans++
	v.flagged += int64(flagged)
	v.zeroed += int64(zeroed)
}

// ReleaseLayer implements qinfer.WeightFetcher.
func (v *verifier) ReleaseLayer(li int) { v.s.prot.ReleaseLayer(li) }

// flush publishes a finished pass to the model's metrics; verify is the
// time the engine reports the pass spent in its fetch steps.
func (v *verifier) flush(verify time.Duration) {
	met := v.s.met
	met.verifyScans.Add(v.scans)
	if v.flagged > 0 {
		met.verifyFlagged.Add(v.flagged)
		met.verifyZeroed.Add(v.zeroed)
	}
	v.s.verifyNs.Add(int64(verify))
	v.scans, v.flagged, v.zeroed = 0, 0, 0
}
