package core

import (
	"encoding/binary"
	"sync"
	"unsafe"
)

// SWAR (SIMD-within-a-register) checksum kernels.
//
// The masked addition checksum of a group is Σ ±q[i], the sign drawn from
// the 16-bit key at keystream position t mod 16. The scalar kernels pay a
// multiply and an add per weight; the kernels in this file instead load 8
// int8 weights per uint64 and process them word-parallel:
//
//   - Each byte is re-biased to excess-128 (b ^ 0x80), making every lane a
//     non-negative u = q+128 that sums without sign handling.
//   - A negated weight is folded into the same domain with a byte-wise NOT:
//     u ^ 0xFF = 255−u = 127−q, so XORing a minus lane with 0xFF *adds the
//     negated weight* up to a constant that is settled at flush time. Bias
//     and sign therefore collapse into one XOR mask per word: 0x80 in +1
//     lanes, 0x7F in −1 lanes.
//   - The ±1 keystream is precompiled per scheme into these sign-partitioned
//     8-byte lane masks (compileLaneMasks). The key is 16 bits and a word
//     covers 8 positions, so the keystream seen by consecutive words is
//     periodic with period 2 — each G-sized group needs at most the 2
//     precompiled mask phrases, whatever G is.
//   - Masked words are widened pairwise (byte lanes → 16-bit lanes) so
//     repeated adds cannot carry into a neighbour, and accumulated; 16-bit
//     lanes are flushed into an int32 before they can saturate. The flush
//     subtracts the accumulated constant in closed form:
//     Σ ±q = Σ lanes − (128·#plus + 127·#minus).
//
// The contiguous path consumes each group's weights whole-word-at-a-time;
// the interleaved path consumes whole row segments word-at-a-time (8
// consecutive weights of a row belong to 8 consecutive groups and share
// one sign, so a loaded word lands in per-group 16-bit lanes held in two
// registers per 8-group chunk). Both feed the existing Binarize and are
// property-tested bit-identical to the per-group Checksum reference.

const (
	// swarBias re-biases each int8 byte lane to excess-128.
	swarBias = 0x8080808080808080
	// swarLowBytes selects the even byte lanes of a word — the pairwise
	// widening mask (byte lanes → 16-bit lanes).
	swarLowBytes = 0x00FF00FF00FF00FF
	// swarLow16 selects the even 16-bit lanes (16-bit → 32-bit widening).
	swarLow16 = 0x0000FFFF0000FFFF
)

// laneMasks is the compiled form of a scheme's ±1 masking keystream: for
// each of the two word phases (key bits 0–7, key bits 8–15), the combined
// bias+sign XOR mask and the constant one word of that phase adds.
type laneMasks struct {
	// xor[ph] has 0x80 in byte lane b if keystream position ph·8+b is +1
	// (plain excess-128 bias) and 0x7F if it is −1 (bias plus byte-wise
	// NOT, which negates the weight in the biased domain).
	xor [2]uint64
	// bias[ph] = 128·#plus + 127·#minus of phase ph — the constant a word
	// XORed with xor[ph] contributes on top of Σ ±q.
	bias [2]int32
}

// compileLaneMasks partitions the 16 keystream signs into the two 8-byte
// lane-mask phrases. Key bit 1 means the weight is added, bit 0 means it
// enters negated (maskSign).
func compileLaneMasks(key uint16) laneMasks {
	var lm laneMasks
	for ph := 0; ph < 2; ph++ {
		for b := 0; b < 8; b++ {
			if (key>>(uint(ph*8+b)))&1 == 1 {
				lm.xor[ph] |= 0x80 << (8 * b)
				lm.bias[ph] += 128
			} else {
				lm.xor[ph] |= 0x7F << (8 * b)
				lm.bias[ph] += 127
			}
		}
	}
	return lm
}

// asBytes reinterprets the weight slice as bytes for word loads. int8 and
// byte have identical size and alignment, so the view is exact; the loads
// below go through encoding/binary, which handles unaligned addresses.
func asBytes(q []int8) []byte {
	if len(q) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&q[0])), len(q))
}

// kernelScratch is the per-call working memory of the interleaved kernel:
// the per-group int32 sums and the 16-bit lane accumulator words, a few KB
// that stay L1-resident across the row sweep. Pooled so steady-state scans
// allocate nothing; each concurrent shard scan checks out its own
// instance.
type kernelScratch struct {
	sums       []int32
	accE, accO []uint64
}

var kernelScratchPool = sync.Pool{New: func() any { return new(kernelScratch) }}

func getKernelScratch() *kernelScratch {
	return kernelScratchPool.Get().(*kernelScratch)
}

func putKernelScratch(ks *kernelScratch) { kernelScratchPool.Put(ks) }

// sumsBuf returns a zeroed length-n sum buffer backed by the scratch,
// growing the backing array only on high-water marks.
func (ks *kernelScratch) sumsBuf(n int) []int32 {
	if cap(ks.sums) < n {
		ks.sums = make([]int32, n)
	}
	ks.sums = ks.sums[:n]
	for i := range ks.sums {
		ks.sums[i] = 0
	}
	return ks.sums
}

// accBufs returns zeroed length-n even/odd lane accumulator buffers backed
// by the scratch.
func (ks *kernelScratch) accBufs(n int) ([]uint64, []uint64) {
	if cap(ks.accE) < n {
		ks.accE = make([]uint64, n)
		ks.accO = make([]uint64, n)
	}
	ks.accE, ks.accO = ks.accE[:n], ks.accO[:n]
	for i := range ks.accE {
		ks.accE[i] = 0
		ks.accO[i] = 0
	}
	return ks.accE, ks.accO
}

// hsum16x4 sums the four 16-bit lanes of an accumulator word into a scalar
// by widening twice (16→32→64 bits).
func hsum16x4(x uint64) int32 {
	s := (x & swarLow16) + ((x >> 16) & swarLow16)
	return int32((s & 0xFFFFFFFF) + (s >> 32))
}

// kernelPlan is a scheme compiled against one layer length: everything the
// SWAR kernels derive from (Scheme, len(q)) before touching a weight — the
// group geometry and the ±1 keystream as lane masks (contiguous) or row
// tables (interleaved). Scans compile one per shard call on the stack; the
// protector keeps one per layer (Protector.plans) so the fetch-path verify
// starts straight at the weights.
type kernelPlan struct {
	s Scheme
	l int // layer length the plan was compiled for
	n int // NumGroups(l)

	// Contiguous grouping: the two word-phase lane masks.
	lm laneMasks

	// Interleaved grouping: row geometry and the per-row (keystream
	// position r mod KeyBits) XOR mask, bias constant and scalar sign.
	rows, rowsFull, off int
	maskTab             [KeyBits]uint64
	biasTab, signTab    [KeyBits]int32
}

// compile builds the kernel plan of s for a layer of l weights.
func (s Scheme) compile(l int) kernelPlan {
	pl := kernelPlan{s: s, l: l, n: s.NumGroups(l)}
	if !s.Interleave {
		pl.lm = compileLaneMasks(s.Key)
		return pl
	}
	n := pl.n
	pl.rows = (l + n - 1) / n
	pl.rowsFull = l / n // rows r < rowsFull have all n members in range
	pl.off = s.Offset % n
	if pl.off < 0 {
		pl.off += n
	}
	for t := 0; t < KeyBits; t++ {
		if (s.Key>>uint(t))&1 == 1 {
			pl.maskTab[t] = swarBias
			pl.biasTab[t] = 128
			pl.signTab[t] = 1
		} else {
			pl.maskTab[t] = swarBias ^ ^uint64(0)
			pl.biasTab[t] = 127
			pl.signTab[t] = -1
		}
	}
	return pl
}

// checksumRange computes the masked checksum of every group in [lo, hi)
// and hands each (group index, checksum) to emit in ascending group order.
// It is the shared word-parallel kernel under SignaturesRange, the golden
// refresh and the scan compare path; emit runs inline on the caller's
// stack, so a non-escaping closure keeps the whole scan allocation-free.
// Callers guarantee 0 ≤ lo < hi ≤ NumGroups(len(q)).
func (s Scheme) checksumRange(q []int8, lo, hi int, emit func(j int, m int32)) {
	pl := s.compile(len(q))
	if !s.Interleave {
		pl.contiguous(q, lo, hi, emit)
		return
	}
	ks := getKernelScratch()
	sums := ks.sumsBuf(hi - lo)
	accE, accO := ks.accBufs((hi - lo) >> 3)
	bias := pl.interleaved(q, lo, hi, sums, accE, accO)
	for k, m := range sums {
		emit(lo+k, m-bias)
	}
	putKernelScratch(ks)
}

// verifyChunk is how many groups the fetch-path verify checks per kernel
// call: small enough that the kernel's working memory (3 KB) lives on the
// caller's stack — no pool, no allocation — and that a corrupted layer is
// rejected after one chunk, large enough that a chunk's row segments are
// still whole cache lines.
const verifyChunk = 512

// verify reports whether every group of q still binarizes to its golden
// signature. It is the scan compare path reduced to a yes/no for one
// layer, run inline from a precompiled plan: same kernels, same
// arithmetic, no scratch pool, no flagged list.
func (pl *kernelPlan) verify(q []int8, golden []uint8) bool {
	if len(q) != pl.l || len(golden) != pl.n {
		return false // not the layer this plan was compiled for
	}
	var (
		sums       [verifyChunk]int32
		accE, accO [verifyChunk >> 3]uint64
	)
	s := pl.s
	var diff uint8 // OR of signature XOR golden over the chunk: branch-free compare
	for lo := 0; lo < pl.n && diff == 0; lo += verifyChunk {
		hi := min(lo+verifyChunk, pl.n)
		if !s.Interleave {
			pl.contiguous(q, lo, hi, func(j int, m int32) { diff |= s.Binarize(m) ^ golden[j] })
			continue
		}
		S := hi - lo
		clear(sums[:S])
		clear(accE[:S>>3])
		clear(accO[:S>>3])
		bias := pl.interleaved(q, lo, hi, sums[:S], accE[:S>>3], accO[:S>>3])
		for k, g := range golden[lo:hi] {
			diff |= s.Binarize(sums[k]-bias) ^ g
		}
	}
	return diff == 0
}

// contiguous is the word-parallel kernel for contiguous grouping: group j
// owns q[jG:(j+1)G], whose keystream starts at phase 0, so words
// alternate between the two mask phrases. Each word adds at most 510 per
// 16-bit lane, so the accumulator is flushed every 128 words, before a
// lane can saturate.
func (pl *kernelPlan) contiguous(q []int8, lo, hi int, emit func(j int, m int32)) {
	s, l, lm := pl.s, pl.l, &pl.lm
	qb := asBytes(q)
	for j := lo; j < hi; j++ {
		base := j * s.G
		end := base + s.G
		if end > l {
			end = l
		}
		gl := end - base
		words := gl >> 3
		var m int32
		if words > 0 {
			var acc uint64
			var bias int32
			inAcc := 0
			for wi := 0; wi < words; wi++ {
				ph := wi & 1
				ux := binary.LittleEndian.Uint64(qb[base+wi*8:]) ^ lm.xor[ph]
				acc += (ux & swarLowBytes) + ((ux >> 8) & swarLowBytes)
				bias += lm.bias[ph]
				if inAcc++; inAcc == 128 {
					m += hsum16x4(acc) - bias
					acc, bias, inAcc = 0, 0, 0
				}
			}
			m += hsum16x4(acc) - bias
		}
		for t := words << 3; t < gl; t++ { // ragged tail, scalar
			m += s.maskSign(t) * int32(q[base+t])
		}
		emit(j, m)
	}
}

// interleaved is the word-parallel kernel for interleaved grouping. The
// caller supplies the working memory, zeroed: sums (one int32 per group of
// [lo, hi)) and the accE/accO lane accumulators (one word each per 8
// groups) — pooled for scans, on the stack for verify — and gets back
// sums[k] = checksum of group lo+k plus the returned bias.
//
// Within one row every weight carries the same sign (the keystream
// position is the row index) and consecutive weights belong to
// consecutive groups, so the kernel sweeps each row's group segment — a
// contiguous ~shard-sized run of memory, which the hardware prefetcher
// streams — XORs each word with the row's uniform bias+sign mask (0x80
// per byte for +1 rows, 0x7F for −1 rows: excess-128 bias, composed with
// the byte-wise NOT that negates a weight in that domain), splits it into
// even and odd byte lanes and adds it to per-group 16-bit lane
// accumulators (two uint64 words per 8 groups, L1-resident). The lane
// grid realigns with the segment each row (the interleave offset rotates
// the segment under the groups), so up to 7 head/tail lanes per run are
// handled scalar, adding sign·q plus the row's bias constant directly so
// that *every* lane accrues exactly one biasRow per row; a single
// closed-form subtraction of the returned bias then settles it for word
// and scalar contributions alike:
//
//	checksum = Σ lanes − Σ_rows biasRow,  biasRow = 128 (+1) or 127 (−1)
//
// Lane accumulators are flushed into the int32 sums every 255 rows, before
// a 16-bit lane (≤ 255 per row) can saturate. The checksum is an exact
// int32 sum, so none of this reordering changes the result — it is
// bit-identical to the per-group reference.
func (pl *kernelPlan) interleaved(q []int8, lo, hi int, sums []int32, accE, accO []uint64) (bias int32) {
	l, n, rows, rowsFull, off := pl.l, pl.n, pl.rows, pl.rowsFull, pl.off
	qb := asBytes(q)
	S := hi - lo
	var biasAcc int32 // Σ biasRow over all rows, for the caller to subtract
	rowsInAcc := 0
	c := lo % n // column of group lo, maintained per row
	for r := 0; r < rows; r++ {
		t := r & (KeyBits - 1)
		mask, biasRow, sign := pl.maskTab[t], pl.biasTab[t], pl.signTab[t]
		base := r * n
		if r >= rowsFull {
			// Ragged last row: scalar with presence checks. Absent lanes
			// still accrue biasRow so the uniform settlement stays exact.
			for k := 0; k < S; k++ {
				cc := c + k
				if cc >= n {
					cc -= n
				}
				if i := base + cc; i < l {
					sums[k] += sign*int32(q[i]) + biasRow
				} else {
					sums[k] += biasRow
				}
			}
		} else {
			// Run 1: lanes [0, S1) at memory base+c+lane — lane 0 is
			// word-aligned with the accumulator grid by construction.
			S1 := n - c
			if S1 > S {
				S1 = S
			}
			w1 := S1 >> 3
			addWords(accE[:w1], accO[:w1], qb[base+c:], mask)
			for k := w1 << 3; k < S1; k++ { // run-1 tail lanes
				sums[k] += sign*int32(q[base+c+k]) + biasRow
			}
			if S1 < S {
				// Run 2 (ring wrap): lanes [S1, S) at memory base+lane−S1.
				// Scalar until the lane grid realigns, then words again.
				a2 := (S1 + 7) &^ 7
				if a2 > S {
					a2 = S
				}
				for k := S1; k < a2; k++ {
					sums[k] += sign*int32(q[base+k-S1]) + biasRow
				}
				b2 := max(S&^7, a2)
				addWords(accE[a2>>3:b2>>3], accO[a2>>3:b2>>3], qb[base+a2-S1:], mask)
				for k := b2; k < S; k++ {
					sums[k] += sign*int32(q[base+k-S1]) + biasRow
				}
			}
		}
		biasAcc += biasRow
		if rowsInAcc++; rowsInAcc == 255 {
			drainAcc(sums, accE, accO)
			rowsInAcc = 0
		}
		if c -= off; c < 0 {
			c += n
		}
	}
	drainAcc(sums, accE, accO)
	return biasAcc
}

// addWords is the inner loop of the interleaved kernel: it masks
// len(accE) consecutive words of one row segment and adds their even and
// odd byte lanes into the matching accumulator words.
func addWords(accE, accO []uint64, seg []byte, mask uint64) {
	accO = accO[:len(accE)]
	seg = seg[:len(accE)<<3]
	for w := range accE {
		ux := binary.LittleEndian.Uint64(seg[w<<3:]) ^ mask
		accE[w] += ux & swarLowBytes
		accO[w] += (ux >> 8) & swarLowBytes
	}
}

// drainAcc flushes the 16-bit lane accumulators into the per-group int32
// sums and zeroes them. 16-bit lane t of accE[w] / accO[w] belongs to
// sums[8w+2t] / sums[8w+2t+1].
func drainAcc(sums []int32, accE, accO []uint64) {
	for w := range accE {
		e, o := accE[w], accO[w]
		accE[w], accO[w] = 0, 0
		k0 := 8 * w
		lane := sums[k0 : k0+8 : k0+8]
		for t := 0; t < 4; t++ {
			sh := uint(16 * t)
			lane[2*t] += int32((e >> sh) & 0xFFFF)
			lane[2*t+1] += int32((o >> sh) & 0xFFFF)
		}
	}
}
