package tensor

// The AVX2 leg of axpy2x4 (axpy_amd64.s).

// axpy2x4AVX2 is axpy2x4's loop over the first n8 columns, n8 a positive
// multiple of 8: n8 elements are read at each of b0 … b3 and read and
// written at c0 and c1. axpy2x4 has checked the lengths.
//
//go:noescape
func axpy2x4AVX2(c0, c1, b0, b1, b2, b3 *float32, n8 int, x0, x1, x2, x3, y0, y1, y2, y3 float32)
