// Package core implements RADAR — the paper's contribution: a run-time
// adversarial weight-attack detection and accuracy-recovery scheme.
//
// Weights of a layer are organized into groups of G (optionally
// interleaved, so group members were originally ≈N positions apart, N being
// the group count). Each weight contributes ±q to an addition checksum M
// according to a per-layer 16-bit secret key ("masking"); the group's
// signature is the 2-bit (or 3-bit) binarization of M:
//
//	S_A = ⌊M/256⌋ mod 2,  S_B = ⌊M/128⌋ mod 2,  (S_C = ⌊M/64⌋ mod 2)
//
// S_B acts as a parity on MSBs (an MSB flip changes M by ±128), S_A
// catches same-direction double flips, masking randomizes the relative
// signs of paired flips, and interleaving scatters spatially clustered
// flips into distinct groups. Golden signatures live in secure on-chip
// storage; a run-time scan recomputes signatures over the fetched weights
// and flags mismatching groups, whose weights are then zeroed (recovery).
package core

import "fmt"

// KeyBits is N_k, the per-layer secret key length of the paper.
const KeyBits = 16

// DefaultOffset is the paper's interleaving offset ("an additional offset
// of 3 in all our experiments").
const DefaultOffset = 3

// Scheme is the per-layer RADAR configuration: grouping geometry, secret
// key and signature width. It is a value type; all methods are pure.
type Scheme struct {
	// G is the group size.
	G int
	// Interleave selects interleaved grouping (members ≈N apart) instead of
	// contiguous grouping.
	Interleave bool
	// Offset is the per-row rotation of the interleaved assignment (secret,
	// per layer; paper default 3).
	Offset int
	// Key is the 16-bit masking key (secret, per layer).
	Key uint16
	// SigBits is 2 (S_A,S_B) or 3 (adds S_C protecting MSB-1).
	SigBits int
}

// Validate panics on nonsensical configurations; schemes are built by
// trusted code paths, so misconfiguration is a programming error.
func (s Scheme) Validate(l int) {
	if s.G <= 0 {
		panic("core: group size must be positive")
	}
	if s.SigBits != 2 && s.SigBits != 3 {
		panic(fmt.Sprintf("core: SigBits must be 2 or 3, got %d", s.SigBits))
	}
	if l <= 0 {
		panic("core: empty layer")
	}
}

// NumGroups returns N = ⌈L/G⌉ for a layer of l weights.
func (s Scheme) NumGroups(l int) int {
	return (l + s.G - 1) / s.G
}

// GroupOf maps weight index i of a layer with l weights to its group.
//
// Interleaved: deal the layer row-wise into N columns; row r = i/N,
// column c = i mod N; the group is (c + Offset·r) mod N, so each group
// receives exactly one element per row and members of a group are ≈N
// positions apart in the original layout.
//
// Contiguous: group = i/G.
func (s Scheme) GroupOf(i, l int) int {
	n := s.NumGroups(l)
	if !s.Interleave {
		return i / s.G
	}
	r := i / n
	c := i % n
	return (c + s.Offset*r) % n
}

// Members returns the weight indices of group j in ascending position
// order. Virtual padding positions (when G·N > L) are simply absent.
func (s Scheme) Members(j, l int) []int {
	n := s.NumGroups(l)
	if !s.Interleave {
		lo := j * s.G
		hi := lo + s.G
		if hi > l {
			hi = l
		}
		if lo >= l {
			return nil
		}
		out := make([]int, hi-lo)
		for k := range out {
			out[k] = lo + k
		}
		return out
	}
	out := make([]int, 0, s.G)
	for r := 0; r < s.G; r++ {
		c := ((j-s.Offset*r)%n + n) % n
		i := r*n + c
		if i < l {
			out = append(out, i)
		}
	}
	return out
}

// VisitMembers calls visit(t, i) for every weight index i of group j in
// ascending position order t — the allocation-free form of Members, used
// by the per-group checksum and the recovery zeroing paths where a
// fresh index slice per group call would dominate the cost.
func (s Scheme) VisitMembers(j, l int, visit func(t, i int)) {
	n := s.NumGroups(l)
	if !s.Interleave {
		lo := j * s.G
		hi := lo + s.G
		if hi > l {
			hi = l
		}
		for i := lo; i < hi; i++ {
			visit(i-lo, i)
		}
		return
	}
	t := 0
	for r := 0; r < s.G; r++ {
		c := ((j-s.Offset*r)%n + n) % n
		if i := r*n + c; i < l {
			visit(t, i)
			t++
		}
	}
}

// maskSign returns −1 or +1 for keystream position t: key bit 0 means the
// weight enters the checksum two's-complemented (negated), per Algorithm 1.
func (s Scheme) maskSign(t int) int32 {
	if (s.Key>>(uint(t)%KeyBits))&1 == 0 {
		return -1
	}
	return 1
}

// Checksum computes the masked addition checksum M of group j over the
// layer's quantized weights. It is the scalar, one-group-at-a-time
// reference the SWAR kernels are property-tested against; it allocates
// nothing.
func (s Scheme) Checksum(q []int8, j int) int32 {
	var m int32
	s.VisitMembers(j, len(q), func(t, i int) {
		m += s.maskSign(t) * int32(q[i])
	})
	return m
}

// Binarize derives the signature bits from a checksum. Arithmetic shifts
// implement the paper's floor-division semantics exactly, including for
// negative M. Bit layout: bit0 = S_B (⌊M/128⌋ mod 2), bit1 = S_A
// (⌊M/256⌋ mod 2), bit2 = S_C (⌊M/64⌋ mod 2, only when SigBits == 3).
func (s Scheme) Binarize(m int32) uint8 {
	sb := uint8((m >> 7) & 1)
	sa := uint8((m >> 8) & 1)
	sig := sb | sa<<1
	if s.SigBits == 3 {
		sc := uint8((m >> 6) & 1)
		sig |= sc << 2
	}
	return sig
}

// Signature computes the signature of group j directly.
func (s Scheme) Signature(q []int8, j int) uint8 {
	return s.Binarize(s.Checksum(q, j))
}

// Signatures computes the signature of every group of a layer (the form
// the run-time scan uses). It delegates to SignaturesRange and thus the
// SWAR kernel in swar.go, which consumes 8 int8 weights per uint64 load —
// bit-identical to the per-group Checksum path (property-tested; the PR 1
// scalar row-segment walk survives as SignaturesRangeRef).
func (s Scheme) Signatures(q []int8) []uint8 {
	return s.SignaturesRange(q, 0, s.NumGroups(len(q)))
}

// Compare returns the indices of groups whose signatures differ.
func Compare(golden, fresh []uint8) []int {
	if len(golden) != len(fresh) {
		panic("core: signature length mismatch")
	}
	var bad []int
	for i := range golden {
		if golden[i] != fresh[i] {
			bad = append(bad, i)
		}
	}
	return bad
}
