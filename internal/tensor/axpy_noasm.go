//go:build !amd64

package tensor

// The AVX2 leg exists on amd64 only; axpyAVX2 is never true elsewhere.
func axpy2x4AVX2(c0, c1, b0, b1, b2, b3 *float32, n8 int, x0, x1, x2, x3, y0, y1, y2, y3 float32) {
	panic("tensor: no AVX2 leg on this GOARCH")
}
