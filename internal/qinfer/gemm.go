// im2col + int8 GEMM convolution, with two GEMM kernels and two
// requantization legs.
//
// The historical conv loop (computeRef, kept in gemm_test.go) carried the
// padding branches and index arithmetic per tap; this path hoists them
// out. Each conv stage packs the receptive field of every output pixel
// into a pixel-major patch matrix (im2col, over a zero-bordered copy of
// the image so no tap needs a bounds branch), multiplies the weight rows
// with it, and maps each output-channel row of sums to int8 by the
// reference loop's own formula (levels.conv). Either kernel reads the
// weights from the protected image on every stage call, inside the fetch
// bracket, and keeps nothing across passes — inference sees the image as
// it is, flips included.
//
//   - avx2 (gemm_amd64.s, behind gemmAVX2): reads the weight rows where
//     they lie. Sixteen int8 of a weight row and of a patch row are
//     sign-extended to int16, VPMADDWD multiplies them and adds adjacent
//     pairs into eight int32 lanes, a 2-row × 4-pixel tile keeps eight
//     such accumulators, and the lanes are summed at the end of K. The
//     tile loops are inside the assembly: one call per image per stage.
//   - generic (packPairs + gemmPacked, pure Go): packs the weight rows two
//     to a 64-bit word, once per stage call, and the K loop does
//     acc += (w[m][k] + w[m+1][k]·2³²) · b[p][k], one 64-bit multiply for
//     two MACs, on a 2-pair × 4-pixel tile of 8 accumulators.
//
// Requantization (levels.conv for a conv row, levels.add for a residual
// sum) evaluates clampQ(max(v, floor)/scale) on both legs. With the avx2
// kernel, requant_amd64.s does it four float64 lanes at a time — the Go
// loop's multiplies, add, max and divide in its order, no FMA, then an
// exact round half away from zero — and Go runs the last len mod 4
// elements; the generic leg is the Go loop alone.
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
// as K ≤ maxLaneK, and integer addition is exact in any order. Generic:
// acc = S_m + S_m+1·2³² mod 2⁶⁴, so lo = int32(acc) is S_m and
// (acc − lo) >> 32 is S_m+1 whenever both fit an int32. avx2: a product of
// two int8 is at most 2¹⁴, so a VPMADDWD pair sum (≤ 2¹⁵) is nowhere near
// the instruction's one overflow case, and every lane holds a sub-sum of
// products whose absolute values total less than 2³¹. So both kernels'
// outputs are bit-identical to the reference loop's — property-tested in
// gemm_test.go, once per kernel, over every layer shape of the checkpoint
// models plus randomized shapes.
package qinfer

import "time"

// engineScratch is the working state of one Forward pass: the packed
// weight rows of the stage in flight (generic kernel only), the
// zero-bordered input plane, the im2col patch matrix, the GEMM accumulator
// plane and the classifier's dequantized row, plus the pass's fetch seam
// and clocks. Instances cycle through the engine's pool so concurrent
// inference workers (internal/serve runs several over one Engine) never
// share or reallocate buffers in steady state.
type engineScratch struct {
	packed [][2]int64
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

// im2col packs one image's receptive fields into the pixel-major patch
// matrix: row p = (oy·outW+ox) holds the K = inC·k·k patch of output
// pixel (oy, ox) in the same (ic, ky, kx) order as a weight row. The image
// is first copied into a zero-bordered plane per channel, wide enough that
// every tap of every pixel is an in-bounds read, so the pack loop has no
// padding branches; zero taps contribute nothing to an integer dot product,
// exactly like the reference loop's skipped iterations.
func (c *qconv) im2col(src []int8, h, w, outH, outW int, cols []int8, sc *engineScratch) {
	k, stride, pad := c.k, c.stride, c.pad
	// ConvOutSize rounds toward zero, so on inputs smaller than the kernel
	// the last tap can lie past h+2·pad.
	ph, pw := max(h+2*pad, (outH-1)*stride+k), max(w+2*pad, (outW-1)*stride+k)
	if ph != h || pw != w {
		padded := grow(&sc.padded, c.inC*ph*pw)
		clear(padded)
		for r := 0; r < c.inC*h; r++ { // row r%h of channel r/h
			copy(padded[(r/h*ph+r%h+pad)*pw+pad:], src[r*w:][:w])
		}
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

// gemmLive is the kernel that multiplies straight from the live weight
// rows, installed at init where the host supports one (gemm_amd64.go); nil
// selects packPairs + gemmPacked. Only init and the tests write it.
var gemmLive func(a, b []int8, out []int32, M, K, P4 int)

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
