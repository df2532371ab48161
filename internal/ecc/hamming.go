package ecc

import "math/bits"

// Hamming implements a SEC-DED (single-error-correct, double-error-detect)
// extended Hamming code over arbitrary-length bit blocks: r parity bits
// where 2^r ≥ data+r+1, plus one overall parity bit. For the paper's
// comparison: 64 data bits need 7+1 bits, 4096 data bits need 13+1.
type Hamming struct {
	// DataBits is the protected block length in bits.
	DataBits int
	// ParityBits is r, excluding the overall parity bit.
	ParityBits int
}

// NewHamming sizes a SEC-DED code for the given data length.
func NewHamming(dataBits int) Hamming {
	r := 0
	for (1 << uint(r)) < dataBits+r+1 {
		r++
	}
	return Hamming{DataBits: dataBits, ParityBits: r}
}

// Syndrome computes the Hamming syndrome and overall parity of a bit
// block laid out in the standard scheme (data bits occupy non-power-of-two
// codeword positions).
func (h Hamming) Syndrome(data []uint8) (syndrome uint32, parity uint8) {
	if len(data) != h.DataBits {
		panic("ecc: data length mismatch")
	}
	pos := 1
	di := 0
	for di < len(data) {
		if pos&(pos-1) == 0 { // parity position
			pos++
			continue
		}
		if data[di]&1 == 1 {
			syndrome ^= uint32(pos)
			parity ^= 1
		}
		pos++
		di++
	}
	return syndrome, parity
}

// Encode returns the check word for a data block: syndrome bits plus the
// overall parity of data and syndrome.
func (h Hamming) Encode(data []uint8) uint32 {
	syn, par := h.Syndrome(data)
	// Overall parity covers data and parity bits; fold syndrome parity in.
	par ^= uint8(bits.OnesCount32(syn) & 1)
	return syn<<1 | uint32(par)
}

// Classify compares stored and recomputed check words and reports the
// error class for the corruption between them: 0 = no error, 1 = single
// (correctable), 2 = double (detectable, uncorrectable).
//
// In the standard SEC-DED decision: overall-parity mismatch → odd number
// of errors (single if syndrome nonzero or parity-bit error); parity match
// with nonzero syndrome difference → double error.
func (h Hamming) Classify(stored, fresh uint32) int {
	if stored == fresh {
		return 0
	}
	synDiff := (stored >> 1) ^ (fresh >> 1)
	parDiff := (stored ^ fresh) & 1
	// Recover the pure data parity difference: Encode folded syndrome
	// parity into the stored parity bit, so undo it.
	parDiff ^= uint32(bits.OnesCount32(synDiff) & 1)
	if parDiff == 1 {
		return 1
	}
	if synDiff != 0 {
		return 2
	}
	return 1 // parity-bit-only change
}

// CorrectSingle attempts single-bit error correction with a SEC-DED
// Hamming code: given the stored and freshly computed check words, it
// returns the codeword position (1-based, parity positions included) of
// the flipped bit, or 0 when the difference is not a correctable single
// error. Callers translate the position back to a data-bit index with
// DataIndexOf.
func (h Hamming) CorrectSingle(stored, fresh uint32) int {
	if h.Classify(stored, fresh) != 1 {
		return 0
	}
	synDiff := int((stored >> 1) ^ (fresh >> 1))
	return synDiff // syndrome difference IS the codeword position
}

// DataIndexOf converts a codeword position to a data-bit index, or -1 for
// parity positions.
func (h Hamming) DataIndexOf(codewordPos int) int {
	if codewordPos <= 0 {
		return -1
	}
	if codewordPos&(codewordPos-1) == 0 {
		return -1 // power of two → parity bit
	}
	// Count non-power-of-two positions below codewordPos.
	idx := 0
	for p := 1; p < codewordPos; p++ {
		if p&(p-1) != 0 {
			idx++
		}
	}
	return idx
}
