// int8 GEMM convolution — an implicit-GEMM AVX2 kernel and a pure-Go
// im2col + pair-packed GEMM — and two requantization legs.
//
// The historical conv loop (computeRef, kept in gemm_test.go) carried the
// padding branches and index arithmetic per tap; both paths hoist them
// out. A conv stage first copies each image into zero-bordered planes, wide
// enough that every tap of every output pixel is an in-bounds read (a zero
// tap adds nothing to an integer dot product, exactly like the reference
// loop's skipped iterations), multiplies the weight rows with a patch
// operand whose row k = (ic, ky, kx) — the weight rows' own order — holds
// tap k of every output pixel, and maps each output-channel row of sums to
// int8 by the reference loop's own formula (levels.conv). Either kernel
// reads the weights from the protected image on every stage call, inside
// the fetch bracket, and keeps nothing across passes — inference sees the
// image as it is, flips included.
//
//   - avx2 (gemm_amd64.s, behind gemmLive): the patch operand is implicit
//     in the bordered planes. Output pixels are indexed in padded width,
//     p = oy·pw + ox, so at stride 1 row k is the contiguous slice
//     padded[ic·plane + ky·pw + kx + p] and no byte is copied. At stride s
//     one pass splits the bordered image into phase planes instead, phase
//     (py, px) holding its rows ≡ py and columns ≡ px mod s, and p indexes
//     the phase width: tap (ky, kx) is the same kind of slice of phase
//     (ky mod s, kx mod s) at offset (ky/s, kx/s). Only the min(s, k)²
//     phases some tap reads are built (one for a 1×1/s2 downsample). One
//     offset table per call, koff[k], holds every row's start, for every
//     (k, stride, pad) the engine runs. The weight rows are widened to
//     int16 once per stage call; per pair of k the kernel loads rows k and
//     k+1 at 16 pixels, interleaves them into int16 pairs, and VPMADDWD
//     adds each weight row's broadcast (w_k, w_k+1) pair into eight int32
//     lanes that already hold per-pixel sums, on a 4-row × 16-pixel tile
//     (the last one 8 pixels wide where that covers the row), so nothing
//     is reduced across lanes. An odd K ends on a zero weight.
//     The columns ox ≥ outW of each padded-width row — k−1 of them at
//     stride 1, the phase width minus outW at stride s — are taps that
//     wrap into the next row: junk, which levels.conv skips as it
//     requantizes the real ones row by row, as are the pixels the last tile
//     runs past the last real one, which read the plane buffer's slack.
//   - generic (im2col + packPairs + gemmPacked, pure Go): im2col packs the
//     receptive field of every output pixel into a pixel-major patch
//     matrix; packPairs packs the weight rows two to a 64-bit word, once
//     per stage call, and the K loop does
//     acc += (w[m][k] + w[m+1][k]·2³²) · b[p][k], one 64-bit multiply for
//     two MACs, on a 2-pair × 4-pixel tile of 8 accumulators.
//
// Requantization (levels.conv for a conv row, levels.add for a residual
// sum) evaluates clampQ(max(v, floor)/scale) on both legs. With the avx2
// kernel, requant_amd64.s does it four float64 lanes at a time — the Go
// loop's multiplies, add, max and divide in its order, no FMA, then an
// exact round half away from zero. A conv row at least four wide runs
// there whole, its last step overlapping the one before where the width
// is not a multiple of 4; a residual sum's last len mod 4 elements, and a
// conv row narrower than 4, run in Go. The generic leg is the Go loop
// alone.
//
// Dispatch is by what the process can observe and nothing else: on amd64
// init installs the avx2 kernel in gemmLive when internal/cpu's CPUID/XGETBV
// probe — the same one that selects core's checksum leg — finds AVX2 and
// OS-saved YMM state, and the avx2 requantization leg runs wherever
// gemmLive is set; every other GOARCH, and an amd64 host without it, runs
// the generic kernel and Go loop. GEMMKernel names the choice; no option,
// flag or environment variable changes it.
//
// Exactness: a dot product S has |S| ≤ K·2¹⁴ < 2³¹, which Compile enforces
// as K ≤ maxLaneK, and integer addition is exact in any order — so the
// order in which a kernel visits k, pixels or tiles cannot change a sum.
// Generic: acc = S_m + S_m+1·2³² mod 2⁶⁴, so lo = int32(acc) is S_m and
// (acc − lo) >> 32 is S_m+1 whenever both fit an int32. avx2: a product of
// two int8 is at most 2¹⁴, so a VPMADDWD pair sum (≤ 2¹⁵) is nowhere near
// the instruction's one overflow case, and every real pixel's lane holds a
// sub-sum of products whose absolute values total less than 2³¹ (a junk
// lane may wrap; nobody reads it). So both kernels' outputs are
// bit-identical to the reference loop's — property-tested in gemm_test.go,
// once per kernel, over every layer shape of the checkpoint models plus
// randomized shapes.
package qinfer

import "time"

// engineScratch is the working state of one Forward pass: the weight rows
// of the stage in flight (widened to int16 for the avx2 kernel, packed in
// pairs for the generic one), the implicit operand's offset table, the
// zero-bordered input planes (phase planes for the avx2 kernel), the
// im2col patch matrix (generic kernel only), the GEMM accumulator plane
// and the classifier's dequantized row, plus the pass's fetch seam and
// clocks. Instances cycle through the engine's pool so concurrent
// inference workers (internal/serve runs several over one Engine) never
// share or reallocate buffers in steady state.
type engineScratch struct {
	wide   []int16
	packed [][2]int64
	koff   []int
	padded []int8
	cols   []int8
	acc    []int32
	row    []float32

	// hook and fetcher are this pass's observer and weight-fetch seam (see
	// ForwardWithHook, ForwardFetch); both nil for a plain Forward.
	hook    func(layer int)
	fetcher WeightFetcher
	// fetchTime, stageTime and stages are the pass's clocks: time inside
	// fetch steps, time inside stage compute, stages run.
	fetchTime, stageTime time.Duration
	stages               int64
}

// fetchLayer opens a stage: the pass's hook fires, the fetcher (if any)
// verifies and locks the layer, and the stage's compute clock starts —
// three clock reads per stage split it into fetch and compute time. Its
// results are release's arguments.
func (sc *engineScratch) fetchLayer(layer int) (_ int, start time.Time) {
	if sc.hook != nil {
		sc.hook(layer)
	}
	start = time.Now()
	if sc.fetcher != nil {
		sc.fetcher.FetchLayer(layer)
		fetched := time.Now()
		sc.fetchTime += fetched.Sub(start)
		start = fetched
	}
	return layer, start
}

// release closes a stage opened by fetchLayer. Stages defer it, so a
// panicking compute still lets go of the layer.
func (sc *engineScratch) release(layer int, start time.Time) {
	sc.stageTime += time.Since(start)
	sc.stages++
	if sc.fetcher != nil {
		sc.fetcher.ReleaseLayer(layer)
	}
}

// grow returns *buf resized to n elements, reallocating only on high-water
// marks. Contents are unspecified: every user overwrites what it reads.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// getScratch checks a scratch instance out of the engine pool.
func (e *Engine) getScratch() *engineScratch {
	if sc, ok := e.scratch.Get().(*engineScratch); ok {
		return sc
	}
	return new(engineScratch)
}

// putScratch ends a pass: its stage totals go to the engine's counters
// (one atomic add each per pass, not per stage) and the pass state is
// cleared, so a pooled instance never leaks its caller's hook or fetcher
// into an unrelated pass.
func (e *Engine) putScratch(sc *engineScratch) {
	e.stageCount.Add(sc.stages)
	e.stageNs.Add(int64(sc.stageTime))
	sc.hook, sc.fetcher = nil, nil
	sc.fetchTime, sc.stageTime, sc.stages = 0, 0, 0
	e.scratch.Put(sc)
}

// im2col packs one image's receptive fields into the generic kernel's
// pixel-major patch matrix: row p = (oy·outW+ox) holds the K = inC·k·k
// patch of output pixel (oy, ox) in the same (ic, ky, kx) order as a
// weight row. The image is first copied into a zero-bordered plane per
// channel — the avx2 kernel's stride-1 layout, one phase — so the pack
// loop has no padding branches.
func (c *qconv) im2col(src []int8, h, w, outH, outW int, cols []int8, sc *engineScratch) {
	k, stride := c.k, c.stride
	ph, pw := c.bordered(h, w, outH, outW)
	if ph != h || pw != w {
		padded := grow(&sc.padded, c.inC*ph*pw)
		g := implicitGeom{stride: 1, pad: c.pad, sp: 1, phH: ph, phW: pw}
		g.split(padded, src, c.inC, h, w)
		src = padded
	}
	kk := k * k
	kCols := c.inC * kk
	plane := ph * pw
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			dst := cols[(oy*outW+ox)*kCols:][:kCols]
			base := oy*stride*pw + ox*stride
			for ic := 0; ic < c.inC; ic++ {
				s, d := src[ic*plane+base:], dst[ic*kk:][:kk]
				if k == 3 { // the deployed kernel size: no copy call per 3-byte run
					r0, r1, r2 := s[:3], s[pw:][:3], s[2*pw:][:3]
					d = d[:9]
					d[0], d[1], d[2] = r0[0], r0[1], r0[2]
					d[3], d[4], d[5] = r1[0], r1[1], r1[2]
					d[6], d[7], d[8] = r2[0], r2[1], r2[2]
					continue
				}
				for ky := 0; ky < k; ky++ {
					copy(d[ky*k:][:k], s[ky*pw:])
				}
			}
		}
	}
}

// implicitGeom lays out the avx2 kernel's implicit operand for one conv
// stage at one input size: the phase planes of an image and the pixel
// columns the kernel computes over them (see the file comment).
type implicitGeom struct {
	stride, pad int
	sp          int // phases per axis that some tap reads: min(stride, k)
	phH, phW    int // rows and columns of one phase plane
	outW        int
	// p is the pixel column one past the last real output pixel,
	// (outH−1)·phW + outW; p8 rounds it up to the kernel's 8-pixel step,
	// the row length of the accumulator plane.
	p, p8 int
	// size is the plane buffer's length: the phase planes of every input
	// channel, then the p8 − p bytes the last tile reads past them.
	size int
}

// bordered returns the rows and columns of one channel's zero-bordered
// plane, wide enough for every tap: ConvOutSize rounds toward zero, so on
// inputs smaller than the kernel the last tap can lie past h+2·pad.
func (c *qconv) bordered(h, w, outH, outW int) (ph, pw int) {
	return max(h+2*c.pad, (outH-1)*c.stride+c.k), max(w+2*c.pad, (outW-1)*c.stride+c.k)
}

// implicitGeom splits the bordered plane into phase planes. outH and outW
// are at least 1.
func (c *qconv) implicitGeom(h, w, outH, outW int) implicitGeom {
	s := c.stride
	ph, pw := c.bordered(h, w, outH, outW)
	g := implicitGeom{stride: s, pad: c.pad, sp: min(s, c.k), phH: (ph + s - 1) / s, phW: (pw + s - 1) / s, outW: outW}
	g.p = (outH-1)*g.phW + outW
	g.p8 = (g.p + 7) &^ 7
	g.size = c.inC*g.sp*g.sp*g.phH*g.phW + g.p8 - g.p
	return g
}

// offsets fills koff — K rounded up to even entries — with the start of
// each implicit row k = (ic, ky, kx) in the phase planes: channel 0's k²
// taps, then each further channel's the same shifted by its sp² planes.
// An odd K's closing row repeats the last one, against a zero weight.
func (c *qconv) offsets(g *implicitGeom, koff []int) {
	s, plane, kk := g.stride, g.phH*g.phW, c.k*c.k
	// (py, qy) and (px, qx) are ky and kx as phase and offset: k mod s, k/s.
	for ky, py, qy := 0, 0, 0; ky < c.k; ky++ {
		for kx, px, qx := 0, 0, 0; kx < c.k; kx++ {
			koff[ky*c.k+kx] = (py*g.sp+px)*plane + qy*g.phW + qx
			if px++; px == s {
				px, qx = 0, qx+1
			}
		}
		if py++; py == s {
			py, qy = 0, qy+1
		}
	}
	for i := kk; i < c.inC*kk; i++ {
		koff[i] = koff[i-kk] + g.sp*g.sp*plane
	}
	if n := c.inC * kk; n < len(koff) {
		koff[n] = koff[n-1]
	}
}

// split copies one image — inC planes of h×w — into its phase planes in
// dst, zero borders and slack included (all of dst is written): bordered pixel
// (r, q) = (y+pad, x+pad) lands at (r/s, q/s) of phase (r mod s, q mod s),
// and the pixels of phases no tap reads are skipped. At stride 1 that is
// one row copy per input row.
func (g *implicitGeom) split(dst, src []int8, inC, h, w int) {
	clear(dst)
	s, sp, pad, phW := g.stride, g.sp, g.pad, g.phW
	plane := g.phH * phW
	if s == 1 {
		for ic := 0; ic < inC; ic++ {
			d, row := dst[ic*plane+pad*phW+pad:], src[ic*h*w:]
			for y := 0; y < h; y++ {
				copy(d[y*phW:][:w], row[y*w:])
			}
		}
		return
	}
	for px := 0; px < sp; px++ {
		x0 := ((px-pad)%s + s) % s // the first x with (x+pad) mod s = px
		if x0 >= w {
			continue
		}
		j0, n := (x0+pad)/s, (w-x0+s-1)/s
		for ic := 0; ic < inC; ic++ {
			for y := 0; y < h; y++ {
				r := y + pad
				if r%s >= sp {
					continue
				}
				d := dst[((ic*sp+r%s)*sp+px)*plane+r/s*phW+j0:][:n]
				row := src[(ic*h+y)*w+x0:]
				for t := range d {
					d[t] = row[t*s]
				}
			}
		}
	}
}

// gemmLive is the implicit-GEMM kernel, installed at init where the host
// supports one (gemm_amd64.go): out[m·P8+p] = Σ_k w[m·Ke+k]·b[koff[k]+p]
// over M4 rows of weights widened by widenAVX2, Ke = len(koff). nil
// selects im2col + packPairs + gemmPacked. Only init and the tests write
// it.
var gemmLive func(w []int16, koff []int, b []int8, out []int32, M4, P8 int)

// GEMMKernel names the GEMM kernel the conv stages of this process run,
// "avx2" or "generic", so a latency figure can be tied to the path that
// produced it.
func GEMMKernel() string {
	if gemmLive != nil {
		return "avx2"
	}
	return "generic"
}

// maxLaneK is the largest K whose dot products fit an int32 lane whatever
// the operands: K·128·128 ≤ 2³¹−1.
const maxLaneK = (1<<31 - 1) / (128 * 128)

// packPairs packs the M weight rows of a (M×K, row-major) two to a word for
// gemmPacked: dst[(m/4)·K+k] holds column k of rows m..m+3 as the words
// {row m + row m+1·2³², row m+2 + row m+3·2³²}, rows past M as zeros.
func packPairs(a []int8, dst [][2]int64, M, K int) {
	for m := 0; m < (M+3)&^3; m += 2 {
		d, lane := dst[m/4*K:][:K], m/2&1
		switch {
		case m+1 < M:
			lo, hi := a[m*K:][:K], a[(m+1)*K:][:K]
			for k := range d {
				d[k][lane] = int64(lo[k]) + int64(hi[k])<<32
			}
		case m < M:
			for k, v := range a[m*K:][:K] {
				d[k][lane] = int64(v)
			}
		default:
			for k := range d {
				d[k][lane] = 0
			}
		}
	}
}

// gemmPacked computes out[m·P4+p] = Σ_k a[m·K+k]·b[p·K+k] for the weight
// rows packed into a2 by packPairs and the row-major int8 patch matrix b
// (P4×K), overwriting out (M4×P4). M4 and P4 are M and P rounded up to the
// 4×4 tile; the rows past M are zeros, the patch rows past P whatever the
// buffer held, and nobody reads their outputs. K iterates ascending, as in
// the reference conv.
func gemmPacked(a2 [][2]int64, b []int8, out []int32, M4, K, P4 int) {
	for m0 := 0; m0 < M4; m0 += 4 {
		aq := a2[m0/4*K:][:K]
		for p0 := 0; p0 < P4; p0 += 4 {
			b0 := b[p0*K:][:len(aq)]
			b1 := b[(p0+1)*K:][:len(aq)]
			b2 := b[(p0+2)*K:][:len(aq)]
			b3 := b[(p0+3)*K:][:len(aq)]
			var c00, c01, c02, c03 int64 // rows m0 (low lane) and m0+1
			var c10, c11, c12, c13 int64 // rows m0+2 and m0+3
			for k := range aq {
				w0, w1 := aq[k][0], aq[k][1]
				v0, v1, v2, v3 := int64(b0[k]), int64(b1[k]), int64(b2[k]), int64(b3[k])
				c00 += w0 * v0
				c01 += w0 * v1
				c02 += w0 * v2
				c03 += w0 * v3
				c10 += w1 * v0
				c11 += w1 * v1
				c12 += w1 * v2
				c13 += w1 * v3
			}
			o0 := out[m0*P4+p0:][:4]
			o1 := out[(m0+1)*P4+p0:][:4]
			o2 := out[(m0+2)*P4+p0:][:4]
			o3 := out[(m0+3)*P4+p0:][:4]
			o0[0], o1[0] = unpack(c00)
			o0[1], o1[1] = unpack(c01)
			o0[2], o1[2] = unpack(c02)
			o0[3], o1[3] = unpack(c03)
			o2[0], o3[0] = unpack(c10)
			o2[1], o3[1] = unpack(c11)
			o2[2], o3[2] = unpack(c12)
			o2[3], o3[3] = unpack(c13)
		}
	}
}

// unpack splits a packed accumulator into its two int32 lanes: the high
// lane is read after taking the low one back out, borrow included.
func unpack(acc int64) (lo, hi int32) {
	lo = int32(acc)
	return lo, int32((acc - int64(lo)) >> 32)
}
