package tensor

import "radar/internal/cpu"

// Add returns a + b elementwise. Shapes must match.
func Add(a, b *Tensor) *Tensor {
	mustSameShape(a, b, "Add")
	out := New(a.Shape...)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// AddInPlace accumulates b into a elementwise and returns a.
func AddInPlace(a, b *Tensor) *Tensor {
	mustSameShape(a, b, "AddInPlace")
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
	return a
}

// Scale multiplies every element of t by s in place and returns t.
func (t *Tensor) Scale(s float32) *Tensor {
	for i := range t.Data {
		t.Data[i] *= s
	}
	return t
}

func mustSameShape(a, b *Tensor, op string) {
	if !SameShape(a, b) {
		panic("tensor: " + op + ": shape mismatch")
	}
}

// MatMul computes the matrix product C = A·B where A is (m×k) and B is
// (k×n) into a new tensor, with MatMulInto's kernel and bits.
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := matMulDims(a, b, a.Shape[0], a.Shape[1], "MatMul")
	out := New(m, n)
	gemmRows(out.Data, a.Data, b.Data, k, 1, k, n, 0, m)
	return out
}

// MatMulInto writes A·B into dst, an (m×n) tensor whose old contents are
// overwritten. It gives MatMul's bits.
func MatMulInto(dst, a, b *Tensor) {
	m, k, n := matMulDims(a, b, a.Shape[0], a.Shape[1], "MatMulInto")
	if len(dst.Data) != m*n {
		panic("tensor: MatMulInto destination size mismatch")
	}
	gemmRows(dst.Data, a.Data, b.Data, k, 1, k, n, 0, m)
}

// MatMulTransA computes C = Aᵀ·B where A is (k×m) and B is (k×n), producing
// an (m×n) result with the bits of MatMulInto over Transpose(A).
func MatMulTransA(a, b *Tensor) *Tensor {
	m, k, n := matMulDims(a, b, a.Shape[1], a.Shape[0], "MatMulTransA")
	out := New(m, n)
	gemmRows(out.Data, a.Data, b.Data, 1, m, k, n, 0, m)
	return out
}

// matMulDims checks that a and b are 2-D and that a's k (its p extent)
// matches b's rows, and returns (m, k, n).
func matMulDims(a, b *Tensor, m, k int, op string) (int, int, int) {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic("tensor: " + op + " requires 2-D operands")
	}
	if k != b.Shape[0] {
		panic("tensor: " + op + " inner dimension mismatch")
	}
	return m, k, b.Shape[1]
}

// gemmRows writes rows [lo, hi) of C = A·B into c, where A's element (i, p)
// is a[i*rs+p*ps]: (k, 1) for A, (1, m) for Aᵀ. It takes rows two at a time
// and p four steps at a time, so one pass over four rows of B feeds eight
// products per column. Each element still starts at +0 and adds its products
// one at a time in p order, so it has the bits of the plain ikj loop
// (matMulRef in the tests): Go on amd64 never fuses a multiply-add, and the
// ±0 a zero A element adds cannot change a finite sum that never holds −0.
func gemmRows(c, a, b []float32, rs, ps, k, n, lo, hi int) {
	i := lo
	for ; i+1 < hi; i += 2 {
		c0, c1 := c[i*n:(i+1)*n], c[(i+1)*n:(i+2)*n]
		clear(c0)
		clear(c1)
		r0, r1 := i*rs, (i+1)*rs
		p := 0
		for ; p+3 < k; p += 4 {
			x0, x1, x2, x3 := a[r0+p*ps], a[r0+(p+1)*ps], a[r0+(p+2)*ps], a[r0+(p+3)*ps]
			y0, y1, y2, y3 := a[r1+p*ps], a[r1+(p+1)*ps], a[r1+(p+2)*ps], a[r1+(p+3)*ps]
			axpy2x4(c0, c1, b[p*n:(p+4)*n], x0, x1, x2, x3, y0, y1, y2, y3)
		}
		for ; p < k; p++ {
			axpy(c0, b[p*n:(p+1)*n], a[r0+p*ps])
			axpy(c1, b[p*n:(p+1)*n], a[r1+p*ps])
		}
	}
	if i < hi { // an odd last row
		clear(c[i*n : (i+1)*n])
		for p := 0; p < k; p++ {
			axpy(c[i*n:(i+1)*n], b[p*n:(p+1)*n], a[i*rs+p*ps])
		}
	}
}

// axpy adds x·brow to crow: one step of the plain loop.
func axpy(crow, brow []float32, x float32) {
	crow = crow[:len(brow)]
	for j, v := range brow {
		crow[j] += x * v
	}
}

// axpy2x4 adds x·B to c0 and y·B to c1, B being the four rows of b, one
// product at a time in row order. It is gemmRows's inner loop in a function
// of its own, where every slice and scalar it reads stays in a register
// (inline, the loop spilled two of them: ≈ 15 % slower). Where axpyAVX2
// holds, axpy_amd64.s takes the columns 8 at a time with the same roundings
// in the same order, and this loop takes the n mod 8 left over.
func axpy2x4(c0, c1, b []float32, x0, x1, x2, x3, y0, y1, y2, y3 float32) {
	n := len(c0)
	b0 := b[:n]
	b1, b2, b3, c1 := b[n:][:len(b0)], b[2*n:][:len(b0)], b[3*n:][:len(b0)], c1[:len(b0)]
	j := 0
	if n8 := n &^ 7; axpyAVX2 && n8 > 0 {
		axpy2x4AVX2(&c0[0], &c1[0], &b0[0], &b1[0], &b2[0], &b3[0], n8, x0, x1, x2, x3, y0, y1, y2, y3)
		j = n8
	}
	for ; j < len(b0); j++ {
		v0, v1, v2, v3 := b0[j], b1[j], b2[j], b3[j]
		c0[j] = c0[j] + x0*v0 + x1*v1 + x2*v2 + x3*v3
		c1[j] = c1[j] + y0*v0 + y1*v1 + y2*v2 + y3*v3
	}
}

// axpyAVX2 selects axpy2x4's AVX2 leg, the choice of internal/cpu's probe;
// only tests write it.
var axpyAVX2 = cpu.AVX2

// MatMulTransB computes C = A·Bᵀ where A is (m×k) and B is (n×k), an
// (m×n) result, each element one dot product summed in p order. C is
// written over dst when its capacity suffices and into a new slice
// otherwise.
func MatMulTransB(dst []float32, a, b *Tensor) *Tensor {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic("tensor: MatMulTransB requires 2-D operands")
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic("tensor: MatMulTransB inner dimension mismatch")
	}
	dst = reuse(dst, m*n)
	for i := 0; i < m; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := dst[i*n : (i+1)*n]
		for j := range crow {
			brow := b.Data[j*k : (j+1)*k]
			var s float32
			for p := range arow {
				s += arow[p] * brow[p]
			}
			crow[j] = s
		}
	}
	return FromSlice(dst, m, n)
}

// reuse returns dst resliced to size when its capacity suffices and a new
// slice otherwise: the destination convention of Im2Col and MatMulTransB.
// The old contents are left for the caller to overwrite.
func reuse(dst []float32, size int) []float32 {
	if cap(dst) >= size {
		return dst[:size]
	}
	return make([]float32, size)
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	if a.NDim() != 2 {
		panic("tensor: Transpose requires a 2-D operand")
	}
	m, n := a.Shape[0], a.Shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}

// Argmax returns the index of the largest element in a 1-D slice of Data
// starting at off with length n.
func (t *Tensor) Argmax(off, n int) int {
	best, bi := t.Data[off], 0
	for i := 1; i < n; i++ {
		if t.Data[off+i] > best {
			best, bi = t.Data[off+i], i
		}
	}
	return bi
}
