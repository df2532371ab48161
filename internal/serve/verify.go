package serve

import "time"

// verifier is one inference worker's weight-fetch step — the engine's
// qinfer.WeightFetcher. With verified fetch on, every stage of every batch
// goes through core.Protector.FetchLayer: the layer's checksum is
// recomputed under its read lock immediately before the stage's
// convolution reads the same bytes, and a mismatch is repaired under the
// write lock, which the stage then computes under. Nothing is cached and
// nothing depends on a write having announced itself, so a physical flip
// lives until the next batch, not until the next scrub tick. With verified
// fetch off the step only takes the read lock.
//
// Each worker owns one verifier and a pass holds one layer at a time, so
// the hold's mode and the pass's counts are plain fields; flush publishes
// the counts once the pass is over.
type verifier struct {
	s *Server
	// at is the running pass's start, the last-verified stamp of every
	// layer it fetches (see Server.verified).
	at int64
	// exclusive is set while the held layer is write-locked (it was just
	// repaired) rather than read-locked.
	exclusive bool
	// scans, flagged and zeroed are the running pass's counts.
	scans, flagged, zeroed int64
}

// FetchLayer implements qinfer.WeightFetcher.
func (v *verifier) FetchLayer(li int) {
	if !v.s.cfg.VerifiedFetch {
		v.s.guard.RLockLayer(li)
		return
	}
	flagged, zeroed, exclusive := v.s.prot.FetchLayer(li)
	v.exclusive = exclusive
	v.scans++
	v.flagged += int64(flagged)
	v.zeroed += int64(zeroed)
	v.s.stampVerified(li, v.at)
}

// ReleaseLayer implements qinfer.WeightFetcher.
func (v *verifier) ReleaseLayer(li int) {
	if v.exclusive {
		v.exclusive = false
		v.s.guard.UnlockLayer(li)
	} else {
		v.s.guard.RUnlockLayer(li)
	}
}

// flush publishes a finished pass to the model's metrics and returns the
// part of fetched — the time the engine reports the pass spent in fetch
// steps — that was verification: all of it with verified fetch on, none
// with it off, where a fetch step is a read-lock acquisition and belongs
// to the forward.
func (v *verifier) flush(fetched time.Duration) (verify time.Duration) {
	if !v.s.cfg.VerifiedFetch {
		return 0
	}
	met := v.s.met
	met.verifyScans.Add(v.scans)
	if v.flagged > 0 {
		met.verifyFlagged.Add(v.flagged)
		met.verifyZeroed.Add(v.zeroed)
	}
	v.s.verifyNs.Add(int64(fetched))
	v.scans, v.flagged, v.zeroed = 0, 0, 0
	return fetched
}
