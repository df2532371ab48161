package core

import (
	"bytes"
	"encoding/binary"
	"unsafe"

	"radar/internal/cpu"
)

// SWAR (SIMD-within-a-register) checksum kernels.
//
// The masked addition checksum of a group is Σ ±q[i], the sign drawn from
// the 16-bit key at keystream position t mod 16. The kernels load 8 int8
// weights per uint64 and work on them word-parallel:
//
//   - XORing a byte with 0x80 re-biases it to excess-128 (u = q+128 ≥ 0);
//     XORing with 0x7F also negates it (255−u = 127−q). Bias and sign are
//     therefore one XOR mask per word, and every masked byte adds ±q plus a
//     known constant (128 or 127) to its group's sum.
//   - Masked words are split into even and odd byte lanes, widened to
//     16 bits, so lane sums can grow without carrying into a neighbour.
//
// Contiguous grouping (group j owns q[jG:(j+1)G]) sums each group's words
// into one accumulator, reduces it horizontally and binarizes the int32.
//
// Interleaved grouping deals the layer row-wise over the n groups: row r is
// q[rn:(r+1)n], carries one sign (keystream position r) and holds one weight
// of every group, consecutive groups at consecutive columns, the whole row
// rotated by Offset·r. The kernel therefore keeps one 16-bit lane per group
// (accE/accO: even and odd groups of each 8-group word, 2 KB per
// kernelChunk, on the kernel's own stack) and sweeps the rows over them:
//
//   - Four rows per pass. A row's word costs a load, an XOR and three split
//     ops; adding it to the accumulators costs two load-add-store pairs. Four
//     rows summed in registers (≤ 4·255 per lane) share one such update.
//   - The ring wrap. Within [lo, hi) a row is two plain runs of memory — up
//     to its wrap and after it — and consecutive rows wrap within Offset
//     lanes of each other. So a block's words split three ways: before the
//     first wrap and after the last all four rows are plain word runs; the
//     few words between go a row at a time, a wrap word put together from
//     the row's last and first bytes with two shifts, as is the word past
//     the last whole one. Bytes are gathered one at a time only where such
//     a load would leave the layer, and on the ragged last row.
//   - M mod 512 is enough. Binarize reads bits 6–8 of the checksum only, so
//     lanes are never drained to int32: a lane may wrap as long as it does
//     not carry into its neighbour. Clearing bit 15 of every lane (−32768 ≡
//     0 mod 512) at least once per laneRows = 128 rows keeps every lane
//     below 32768 + 128·255 < 65536.
//   - Every lane takes exactly one bias constant per row (an absent weight
//     of the ragged row adds the bare constant), so one broadcast add of
//     (−Σ bias) mod 512 settles all groups at once; (lane>>7)&3 is then the
//     signature of four groups per op, and sigE | sigO<<8 is the eight
//     signature bytes of eight consecutive groups in golden's byte order:
//     one store, and one bytes.Equal per chunk for the callers' compare.
//
// The AVX2 leg. On amd64 hosts where internal/cpu's probe finds AVX2 (the
// probe that picks qinfer's GEMM kernel too), two loops of the interleaved
// kernel run in swar_amd64.s: addWords4's plain-run loop takes 32 bytes of
// each of the four rows per step — one VPXOR against the row's broadcast
// mask, a VPAND/VPSRLW $8 even/odd split, VPADDW into accE and accO — and
// the settle loop binarizes 16 lanes of each parity per op, storing 32
// signature bytes. A lane never carries into its neighbour, so VPADDW is
// bit-for-bit the uint64 add. Wrap words, the word past the last whole one,
// the last words mod 4, short blocks and the ragged row stay in Go, and
// the pure-Go loops are the path of every other host and the reference the
// tests hold the AVX2 leg to (kernelLegs in swar_test.go). Selection is a
// package-level bool read before a direct call; there is no flag, build
// tag or Config field.
//
// Both kernels hand back signature bytes (sigChunk) and are property-tested
// bit-identical to the per-group Checksum reference.

const (
	// swarBias re-biases each int8 byte lane to excess-128.
	swarBias = 0x8080808080808080
	// swarLowBytes selects the even byte lanes of a word — the pairwise
	// widening mask (byte lanes → 16-bit lanes).
	swarLowBytes = 0x00FF00FF00FF00FF
	// swarLow16 selects the even 16-bit lanes (16-bit → 32-bit widening).
	swarLow16 = 0x0000FFFF0000FFFF
	// swarLane15 clears bit 15 of every 16-bit lane.
	swarLane15 = 0x7FFF7FFF7FFF7FFF
	// swarLaneOnes has a 1 in every 16-bit lane.
	swarLaneOnes = 0x0001000100010001

	// laneRows is how many rows a lane cleared of bit 15 can take before it
	// could carry out, blockRows how many share one accumulator update.
	laneRows, blockRows = 128, 4
	// kernelChunk is how many groups one kernel call covers: few enough that
	// its lane accumulators stay in L1 and on the stack and a corrupted
	// layer is rejected early, enough that row segments are cache lines.
	kernelChunk = 1024
)

// sigChunk receives one kernel call's signatures, one byte per group in
// golden's layout; the interleaved kernel stores whole 8-group words, so
// bytes up to the next multiple of 8 past the last group are scratch.
type sigChunk [kernelChunk]uint8

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

// hsum16x4 sums the four 16-bit lanes of an accumulator word into a scalar
// by widening twice (16→32→64 bits).
func hsum16x4(x uint64) int32 {
	s := (x & swarLow16) + ((x >> 16) & swarLow16)
	return int32((s & 0xFFFFFFFF) + (s >> 32))
}

// kernelPlan is a scheme compiled against one layer length: everything the
// SWAR kernels derive from (Scheme, len(q)) before touching a weight — the
// group geometry and the ±1 keystream as lane masks (contiguous) or row
// masks (interleaved). The protector keeps one per layer (Protector.plans),
// so scans and the fetch-path verify start straight at the weights.
type kernelPlan struct {
	s Scheme
	l int // layer length the plan was compiled for
	n int // NumGroups(l)

	// Contiguous grouping: the two word-phase lane masks.
	lm laneMasks

	// Interleaved grouping (rows > 0): row geometry, the XOR mask of a row at keystream
	// position r mod KeyBits (its low byte is the constant the row adds to
	// every lane), (−Σ of those constants over all rows) mod 512 in every
	// 16-bit lane, and the S_C bit selector (zero when SigBits == 2).
	rows, rowsFull, off int
	rowMask             [KeyBits]uint64
	settle, sigC        uint64
}

// compile builds the kernel plan of s for a layer of l weights.
func (s Scheme) compile(l int) kernelPlan {
	pl := kernelPlan{s: s, l: l, n: s.NumGroups(l)}
	if !s.Interleave || pl.n == 1 { // a single group has nothing to interleave
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
		pl.rowMask[t] = swarBias
		if (s.Key>>uint(t))&1 == 0 {
			pl.rowMask[t] = ^uint64(swarBias)
		}
	}
	var bias uint64
	for r := 0; r < pl.rows; r++ {
		bias += pl.rowMask[r&(KeyBits-1)] & 0xFF
	}
	pl.settle = (-bias & 511) * swarLaneOnes
	if s.SigBits == 3 {
		pl.sigC = 4 * swarLaneOnes
	}
	return pl
}

// signatures writes the signatures of groups [lo, hi) to sig[:hi−lo].
// Callers guarantee 0 ≤ lo < hi ≤ n, hi−lo ≤ kernelChunk, len(q) == pl.l.
func (pl *kernelPlan) signatures(q []int8, lo, hi int, sig *sigChunk) {
	if pl.rows > 0 {
		pl.interleaved(asBytes(q), lo, hi, sig)
	} else {
		pl.contiguous(q, lo, hi, sig)
	}
}

// signaturesInto writes the signatures of groups [lo, lo+len(dst)) to dst,
// chunk by chunk, allocating nothing.
func (pl *kernelPlan) signaturesInto(dst []uint8, q []int8, lo int) {
	var sig sigChunk
	for len(dst) > 0 {
		n := min(kernelChunk, len(dst))
		pl.signatures(q, lo, lo+n, &sig)
		copy(dst, sig[:n])
		lo, dst = lo+n, dst[n:]
	}
}

// verify reports whether every group of q still binarizes to its golden
// signature. It is the scan compare path reduced to a yes/no for one
// layer: same kernels, one memory compare per chunk, no flagged list.
func (pl *kernelPlan) verify(q []int8, golden []uint8) bool {
	if len(q) != pl.l || len(golden) != pl.n {
		return false // not the layer this plan was compiled for
	}
	var sig sigChunk
	for lo := 0; lo < pl.n; lo += kernelChunk {
		g := golden[lo:min(lo+kernelChunk, pl.n)]
		pl.signatures(q, lo, lo+len(g), &sig)
		if !bytes.Equal(sig[:len(g)], g) {
			return false
		}
	}
	return true
}

// contiguous is the word-parallel kernel for contiguous grouping: group j
// owns q[jG:(j+1)G], whose keystream starts at phase 0, so words
// alternate between the two mask phrases. Each word adds at most 510 per
// 16-bit lane, so the accumulator is flushed every 128 words, before a
// lane can saturate.
func (pl *kernelPlan) contiguous(q []int8, lo, hi int, sig *sigChunk) {
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
		sig[j-lo] = s.Binarize(m)
	}
}

// rowRun is one row's view of the lanes of [lo, hi): lane k (group lo+k)
// sits at qb[p1+k] up to the ring wrap at lane s1 and at qb[p2+k] after it.
type rowRun struct {
	mask       uint64
	s1, p1, p2 int
}

// at returns the byte index of lane k.
func (rw *rowRun) at(k int) int {
	if k < rw.s1 {
		return rw.p1 + k
	}
	return rw.p2 + k
}

// gather returns lanes k … k+7 of the row byte by byte, for the edges of
// the layer where a word load would leave it; a byte past the end (ragged
// last row) reads as a zero weight, which adds the row's bare constant.
func (rw *rowRun) gather(qb []byte, k int) uint64 {
	var x uint64
	for b := 0; b < 8; b++ {
		if i := rw.at(k + b); i < len(qb) {
			x |= uint64(qb[i]) << (8 * uint(b))
		}
	}
	return x
}

// interleaved is the word-parallel kernel for interleaved grouping (see the
// file header): it sweeps the rows over the lane accumulators, four at a
// time, then settles the lanes into signature bytes, eight per store (32 on
// the AVX2 leg).
func (pl *kernelPlan) interleaved(qb []byte, lo, hi int, sig *sigChunk) {
	n, S := pl.n, hi-lo
	var accEBuf, accOBuf [kernelChunk / 8]uint64
	accE, accO := accEBuf[:(S+7)>>3], accOBuf[:(S+7)>>3]
	var blk [blockRows]rowRun
	c := lo // column of group lo in row r: (lo − off·r) mod n
	sinceClear := 0
	for r := 0; r < pl.rows; {
		nr, words := min(blockRows, pl.rowsFull-r), S>>3
		if nr <= 0 {
			nr, words = 1, 0 // ragged last row: every lane presence-checked
		}
		for i := range blk[:nr] {
			s1 := min(n-c, S)
			blk[i] = rowRun{mask: pl.rowMask[(r+i)&(KeyBits-1)], s1: s1, p1: (r+i)*n + c, p2: (r+i)*n - s1}
			if c -= pl.off; c < 0 {
				c += n
			}
		}
		if sinceClear += nr; sinceClear > laneRows {
			for w := range accE {
				accE[w] &= swarLane15
				accO[w] &= swarLane15
			}
			sinceClear = nr
		}
		addBlock(accE, accO, qb, blk[:nr], words)
		addGathered(accE, accO, qb, blk[:nr], words, len(accE))
		r += nr
	}
	w := 0
	if w4 := len(accE) &^ 3; swarAVX2 && w4 > 0 {
		settleAVX2(&accE[0], &accO[0], &sig[0], w4, pl.settle, pl.sigC)
		w = w4
	}
	for ; w < len(accE); w++ {
		e := accE[w]&swarLane15 + pl.settle
		o := accO[w]&swarLane15 + pl.settle
		e = (e>>7)&(3*swarLaneOnes) | (e>>4)&pl.sigC
		o = (o>>7)&(3*swarLaneOnes) | (o>>4)&pl.sigC
		binary.LittleEndian.PutUint64(sig[8*w:], e|o<<8)
	}
}

// addBlock adds accumulator words [0, words) of a block of full rows.
// Consecutive rows wrap within a few lanes of each other, so the words
// [u, v) that hold some row's wrap are few; before them every row of a full
// block is a plain word run (up to its wrap, from the row's lane 0 at p1),
// after them another (past it, or to the end for a row that does not wrap
// within words), and addWords4 takes both.
func addBlock(accE, accO []uint64, qb []byte, blk []rowRun, words int) {
	u, v := 0, words // a short block goes word by word throughout
	if len(blk) == blockRows {
		u, v = words, 0
		for i := range blk {
			if s1 := blk[i].s1; s1>>3 < words {
				u, v = min(u, s1>>3), max(v, (s1+7)>>3)
			}
		}
		v = min(max(u, v), words)
		m := [blockRows]uint64{blk[0].mask, blk[1].mask, blk[2].mask, blk[3].mask}
		if u > 0 {
			addWords4(accE[:u], accO[:u], qb[blk[0].p1:], qb[blk[1].p1:], qb[blk[2].p1:], qb[blk[3].p1:], &m)
		}
		if k := v << 3; v < words {
			addWords4(accE[v:words], accO[v:words], qb[blk[0].at(k):], qb[blk[1].at(k):], qb[blk[2].at(k):], qb[blk[3].at(k):], &m)
		}
	}
	addGathered(accE, accO, qb, blk, u, v)
}

// addGathered adds accumulator words [u, v) of the rows a word and a row at
// a time: wrap words, the word past the last whole one (whose load may run
// into scratch lanes past hi−lo), short blocks and the ragged last row. A
// word with the wrap h lanes in, 0 < h < 8, is the row's last bytes shifted
// down to the low lanes and its first bytes shifted up behind them.
func addGathered(accE, accO []uint64, qb []byte, blk []rowRun, u, v int) {
	for w := u; w < v; w++ {
		var e, o uint64
		for r := range blk {
			rw, k := &blk[r], w<<3
			h, a := rw.s1-k, rw.at(k)
			i, j := rw.p1+rw.s1-8, rw.p2+rw.s1 // the row's last eight bytes, and its first
			var x uint64
			switch {
			case (h <= 0 || h >= 8) && a+8 <= len(qb):
				x = binary.LittleEndian.Uint64(qb[a:])
			case 0 < h && h < 8 && i >= 0 && max(i, j)+8 <= len(qb):
				x = binary.LittleEndian.Uint64(qb[i:])>>(8*uint(8-h)) | binary.LittleEndian.Uint64(qb[j:])<<(8*uint(h))
			default:
				x = rw.gather(qb, k)
			}
			x ^= rw.mask
			e += x & swarLowBytes
			o += (x >> 8) & swarLowBytes
		}
		accE[w] += e
		accO[w] += o
	}
}

// addWords4 is the inner loop of the interleaved kernel: it masks
// len(accE) consecutive words of four rows, sums their even and odd byte
// lanes in registers (≤ 1020 per lane) and reads and writes the
// accumulators once. The four segments are length-checked once, up front;
// the AVX2 leg then takes whole groups of four words and the Go loop, which
// reads through word8, the rest.
func addWords4(accE, accO []uint64, s0, s1, s2, s3 []byte, m *[blockRows]uint64) {
	accO = accO[:len(accE)]
	nb := len(accE) << 3
	p0, p1 := unsafe.Pointer(unsafe.SliceData(s0[:nb])), unsafe.Pointer(unsafe.SliceData(s1[:nb]))
	p2, p3 := unsafe.Pointer(unsafe.SliceData(s2[:nb])), unsafe.Pointer(unsafe.SliceData(s3[:nb]))
	w := 0
	if w4 := len(accE) &^ 3; swarAVX2 && w4 > 0 {
		addWords4AVX2(&accE[0], &accO[0], p0, p1, p2, p3, m, w4)
		w = w4
	}
	for ; w < len(accE); w++ {
		x := word8(p0, w) ^ m[0]
		e, o := x&swarLowBytes, (x>>8)&swarLowBytes
		x = word8(p1, w) ^ m[1]
		e, o = e+x&swarLowBytes, o+(x>>8)&swarLowBytes
		x = word8(p2, w) ^ m[2]
		e, o = e+x&swarLowBytes, o+(x>>8)&swarLowBytes
		x = word8(p3, w) ^ m[3]
		accE[w] += e + x&swarLowBytes
		accO[w] += o + (x>>8)&swarLowBytes
	}
}

// swarAVX2 selects the AVX2 leg (swar_amd64.s), the choice of
// internal/cpu's probe; only tests write it. A plain bool and a direct
// call, not a func value: an indirect call would move the kernel's stack
// accumulators and mask array to the heap.
var swarAVX2 = cpu.AVX2

// word8 loads the w-th little-endian word after p with no bounds check;
// the caller has checked that 8(w+1) bytes are there.
func word8(p unsafe.Pointer, w int) uint64 {
	return binary.LittleEndian.Uint64((*[8]byte)(unsafe.Add(p, w<<3))[:])
}
