// im2col + register-blocked GEMM convolution kernel.
//
// The historical conv loop (retained as computeRef) carried the padding
// branches and five levels of index arithmetic into the innermost
// multiply; this kernel hoists all of that out of the hot path. Each
// conv stage first packs the receptive field of every output pixel into a
// pixel-major patch matrix (im2col — padding becomes zero bytes written
// once during packing, and a patch row's kx run is a single copy), then a
// 4×4 register-blocked int8×int8→int32 GEMM multiplies the weight matrix
// (outC × K) against the patch matrix (P × K). The blocking keeps 16
// int32 accumulators live across the shared K loop, so every loaded
// weight and patch value is used four times instead of once. Accumulation
// order over K is identical to the reference loop's (ic, ky, kx) order,
// and int32 addition is exact, so the outputs are bit-identical —
// property-tested in gemm_test.go over every layer shape of the
// checkpoint models plus randomized shapes.
package qinfer

import "time"

// engineScratch is the working state of one Forward pass: the im2col patch
// matrix, the GEMM accumulator plane and the classifier's dequantized
// row, plus the pass's fetch seam and clocks. Instances cycle through the
// engine's pool so concurrent inference workers (internal/serve runs
// several over one Engine) never share or reallocate buffers in steady
// state.
type engineScratch struct {
	cols []int8
	acc  []int32
	row  []float32

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

// colsBuf returns an n-element patch buffer, growing only on high-water
// marks. Contents are fully overwritten by im2col, so no zeroing needed.
func (sc *engineScratch) colsBuf(n int) []int8 {
	if cap(sc.cols) < n {
		sc.cols = make([]int8, n)
	}
	return sc.cols[:n]
}

// accBuf returns an n-element accumulator buffer; gemmInt8 overwrites
// every entry, so no zeroing needed.
func (sc *engineScratch) accBuf(n int) []int32 {
	if cap(sc.acc) < n {
		sc.acc = make([]int32, n)
	}
	return sc.acc[:n]
}

// rowBuf returns an n-element float row; the classifier overwrites it.
func (sc *engineScratch) rowBuf(n int) []float32 {
	if cap(sc.row) < n {
		sc.row = make([]float32, n)
	}
	return sc.row[:n]
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
// pixel (oy, ox) in the same (ic, ky, kx) order as a weight row, with
// out-of-bounds taps written as zero. Zero taps contribute nothing to an
// integer dot product, exactly like the reference loop's skipped
// iterations.
func (c *qconv) im2col(src []int8, h, w, outH, outW int, cols []int8) {
	k, stride, pad := c.k, c.stride, c.pad
	kk := k * k
	kCols := c.inC * kk
	plane := h * w
	for oy := 0; oy < outH; oy++ {
		iy0 := oy*stride - pad
		for ox := 0; ox < outW; ox++ {
			dst := cols[(oy*outW+ox)*kCols:][:kCols]
			ix0 := ox*stride - pad
			// kx taps with ix0+kx inside [0, w): a single contiguous copy.
			kxLo, kxHi := -ix0, w-ix0
			if kxLo < 0 {
				kxLo = 0
			}
			if kxHi > k {
				kxHi = k
			}
			for ic := 0; ic < c.inC; ic++ {
				icBase := ic * plane
				for ky := 0; ky < k; ky++ {
					d := dst[ic*kk+ky*k:][:k]
					iy := iy0 + ky
					if iy < 0 || iy >= h || kxLo >= kxHi {
						for i := range d {
							d[i] = 0
						}
						continue
					}
					for i := 0; i < kxLo; i++ {
						d[i] = 0
					}
					copy(d[kxLo:kxHi], src[icBase+iy*w+ix0+kxLo:])
					for i := kxHi; i < k; i++ {
						d[i] = 0
					}
				}
			}
		}
	}
}

// gemmInt8 computes out[m·P+p] = Σ_k a[m·K+k]·b[p·K+k] for the row-major
// int8 matrices a (M×K, weight rows) and b (P×K, patch rows), overwriting
// out. The 4×4 micro-kernel walks K with 16 int32 accumulators in
// registers; edge blocks fall to narrower kernels. K iterates ascending
// everywhere, keeping the accumulation order of the reference conv.
func gemmInt8(a, b []int8, out []int32, M, K, P int) {
	m0 := 0
	for ; m0+4 <= M; m0 += 4 {
		a0 := a[m0*K:][:K]
		a1 := a[(m0+1)*K:][:K]
		a2 := a[(m0+2)*K:][:K]
		a3 := a[(m0+3)*K:][:K]
		p0 := 0
		for ; p0+4 <= P; p0 += 4 {
			b0 := b[p0*K:][:K]
			b1 := b[(p0+1)*K:][:K]
			b2 := b[(p0+2)*K:][:K]
			b3 := b[(p0+3)*K:][:K]
			var c00, c01, c02, c03 int32
			var c10, c11, c12, c13 int32
			var c20, c21, c22, c23 int32
			var c30, c31, c32, c33 int32
			for k := 0; k < K; k++ {
				av0, av1, av2, av3 := int32(a0[k]), int32(a1[k]), int32(a2[k]), int32(a3[k])
				bv0, bv1, bv2, bv3 := int32(b0[k]), int32(b1[k]), int32(b2[k]), int32(b3[k])
				c00 += av0 * bv0
				c01 += av0 * bv1
				c02 += av0 * bv2
				c03 += av0 * bv3
				c10 += av1 * bv0
				c11 += av1 * bv1
				c12 += av1 * bv2
				c13 += av1 * bv3
				c20 += av2 * bv0
				c21 += av2 * bv1
				c22 += av2 * bv2
				c23 += av2 * bv3
				c30 += av3 * bv0
				c31 += av3 * bv1
				c32 += av3 * bv2
				c33 += av3 * bv3
			}
			o := out[m0*P+p0:]
			o[0], o[1], o[2], o[3] = c00, c01, c02, c03
			o = out[(m0+1)*P+p0:]
			o[0], o[1], o[2], o[3] = c10, c11, c12, c13
			o = out[(m0+2)*P+p0:]
			o[0], o[1], o[2], o[3] = c20, c21, c22, c23
			o = out[(m0+3)*P+p0:]
			o[0], o[1], o[2], o[3] = c30, c31, c32, c33
		}
		for ; p0 < P; p0++ { // 4×1 edge
			bp := b[p0*K:][:K]
			var s0, s1, s2, s3 int32
			for k := 0; k < K; k++ {
				bv := int32(bp[k])
				s0 += int32(a0[k]) * bv
				s1 += int32(a1[k]) * bv
				s2 += int32(a2[k]) * bv
				s3 += int32(a3[k]) * bv
			}
			out[m0*P+p0] = s0
			out[(m0+1)*P+p0] = s1
			out[(m0+2)*P+p0] = s2
			out[(m0+3)*P+p0] = s3
		}
	}
	for ; m0 < M; m0++ { // 1×1 edge rows
		am := a[m0*K:][:K]
		for p0 := 0; p0 < P; p0++ {
			bp := b[p0*K:][:K]
			var s int32
			for k := 0; k < K; k++ {
				s += int32(am[k]) * int32(bp[k])
			}
			out[m0*P+p0] = s
		}
	}
}
