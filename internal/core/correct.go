package core

import (
	"radar/internal/ecc"
	"radar/internal/quant"
)

// ECC-corrected recovery. With Config.Correct set, Protect additionally
// encodes one SEC-DED extended-Hamming check word per checksum group over
// the group's full bit image (8 bits per int8 weight, LSB first, members
// in position order). The signature scan stays the detector — the check
// words are never scanned — but when a scan flags a group, recovery
// consults the code before falling back to the paper's zeroing:
//
//   - class 1 (single bit wrong): the flipped bit is located and restored
//     in place, so the group returns to its exact pre-attack bytes instead
//     of losing all G weights;
//   - class 0 (weights verify against the code): the weights are intact,
//     so the *golden signature itself* was corrupted (a signature-store
//     attack); the golden value is recomputed from the verified weights
//     and no weight is touched;
//   - class 2 (double error) or any correction that fails re-verification
//     against the golden signature: fall back to zeroing, never miscorrect
//     silently.
//
// Like the golden signatures, the check words are trusted storage in the
// threat model — except that the sigstore adversary deliberately violates
// that assumption for signatures, which is exactly the case class 0 repairs.

// Correcting reports whether ECC-corrected recovery is enabled.
func (p *Protector) Correcting() bool { return p.correct }

// appendGroupBits appends group g's bit image (members in position order,
// each weight LSB first) and member indices onto the given buffers.
func (p *Protector) appendGroupBits(bits []uint8, idx []int, g GroupID) ([]uint8, []int) {
	l := p.Model.Layers[g.Layer]
	p.Schemes[g.Layer].VisitMembers(g.Group, len(l.Q), func(_, i int) {
		idx = append(idx, i)
		v := uint8(l.Q[i])
		for b := 0; b < 8; b++ {
			bits = append(bits, (v>>uint(b))&1)
		}
	})
	return bits, idx
}

// encodeGroup computes group g's check word from the live weights.
func (p *Protector) encodeGroup(g GroupID) uint32 {
	bits, _ := p.appendGroupBits(nil, nil, g)
	return ecc.NewHamming(len(bits)).Encode(bits)
}

// refreshChecksLayer recomputes layer li's stored check words from the
// current weights. Called wherever golden signatures are refreshed, so the
// two stay in lockstep; no-op when correction is off.
func (p *Protector) refreshChecksLayer(li int) {
	if !p.correct {
		return
	}
	if len(p.Check) != len(p.Model.Layers) {
		p.Check = make([][]uint32, len(p.Model.Layers))
	}
	l := p.Model.Layers[li]
	n := p.Schemes[li].NumGroups(len(l.Q))
	if len(p.Check[li]) != n {
		p.Check[li] = make([]uint32, n)
	}
	for j := 0; j < n; j++ {
		p.Check[li][j] = p.encodeGroup(GroupID{Layer: li, Group: j})
	}
}

// refreshChecksAll recomputes every layer's check words.
func (p *Protector) refreshChecksAll() {
	if !p.correct {
		return
	}
	for li := range p.Model.Layers {
		p.refreshChecksLayer(li)
	}
}

// repairGroupLocked recovers one flagged group under the layer's write
// lock: with correction enabled it first tries the ECC path, and on
// failure — or with correction off — it falls back to zeroing. It returns
// the number of weights zeroed, whether any weight byte was written (the
// caller's MarkWritten trigger), and whether the ECC path repaired the
// group.
func (p *Protector) repairGroupLocked(g GroupID) (zeroed int, wrote, corrected bool) {
	if p.correct {
		var eccWrote bool
		if corrected, eccWrote = p.correctGroupLocked(g); corrected {
			return 0, eccWrote, true
		}
		wrote = eccWrote // a failed correction may have flipped a bit; zeroing overwrites it
	}
	zeroed = p.recoverGroupLocked(g)
	if p.correct {
		// The zeroed image needs a matching check word or the next flag
		// of this group would "correct" it back toward garbage.
		p.Check[g.Layer][g.Group] = p.encodeGroup(g)
	}
	return zeroed, wrote || zeroed > 0, false
}

// correctGroupLocked consults group g's stored check word and attempts
// repair. It reports whether the group was repaired and whether a weight
// byte was written. On any uncertainty it returns ok=false and lets the
// caller zero the group.
func (p *Protector) correctGroupLocked(g GroupID) (ok, wrote bool) {
	if len(p.Check) <= g.Layer || len(p.Check[g.Layer]) <= g.Group {
		return false, false
	}
	l := p.Model.Layers[g.Layer]
	s := p.Schemes[g.Layer]
	bits, idx := p.appendGroupBits(nil, nil, g)
	h := ecc.NewHamming(len(bits))
	stored := p.Check[g.Layer][g.Group]
	fresh := h.Encode(bits)
	switch h.Classify(stored, fresh) {
	case 0:
		// The weights verify against the code, yet the signature scan
		// flagged the group: the golden signature itself is corrupted
		// (signature-store attack). Restore it from the verified weights.
		p.Golden[g.Layer][g.Group] = s.Signature(l.Q, g.Group)
		return true, false
	case 1:
		pos := h.CorrectSingle(stored, fresh)
		di := h.DataIndexOf(pos)
		if di < 0 || di >= len(bits) {
			// Parity-position or out-of-range correction: the stored word
			// itself is suspect. Fall back.
			return false, false
		}
		wi := idx[di/8]
		l.Q[wi] = quant.FlipBit(l.Q[wi], di%8)
		l.SyncIndex(wi)
		// Never miscorrect silently: the repaired bytes must reproduce the
		// golden signature, or the "single error" was multi-bit aliasing.
		if s.Signature(l.Q, g.Group) != p.Golden[g.Layer][g.Group] {
			return false, true
		}
		return true, true
	default:
		return false, false // double error: detectable, uncorrectable
	}
}
