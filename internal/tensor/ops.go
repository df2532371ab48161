package tensor

import (
	"runtime"
	"sync"
)

// maxWorkers bounds the goroutine fan-out used by parallel kernels.
var maxWorkers = runtime.GOMAXPROCS(0)

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
// (k×n). Rows of C are computed in parallel. Inner loops are written in the
// ikj order so that the innermost traversal is contiguous in both B and C.
func MatMul(a, b *Tensor) *Tensor {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic("tensor: MatMul requires 2-D operands")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic("tensor: MatMul inner dimension mismatch")
	}
	out := New(m, n)
	parallelForRows(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Data[i*k : (i+1)*k]
			crow := out.Data[i*n : (i+1)*n]
			for p := 0; p < k; p++ {
				av := arow[p]
				if av == 0 {
					continue
				}
				brow := b.Data[p*n : (p+1)*n]
				for j := range crow {
					crow[j] += av * brow[j]
				}
			}
		}
	})
	return out
}

// MatMulTransA computes C = Aᵀ·B where A is (k×m) and B is (k×n), producing
// an (m×n) result. Used by convolution backward passes.
func MatMulTransA(a, b *Tensor) *Tensor {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic("tensor: MatMulTransA requires 2-D operands")
	}
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic("tensor: MatMulTransA inner dimension mismatch")
	}
	out := New(m, n)
	// Parallelize over output rows; each output row i gathers column i of A.
	parallelForRows(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			crow := out.Data[i*n : (i+1)*n]
			for p := 0; p < k; p++ {
				av := a.Data[p*m+i]
				if av == 0 {
					continue
				}
				brow := b.Data[p*n : (p+1)*n]
				for j := range crow {
					crow[j] += av * brow[j]
				}
			}
		}
	})
	return out
}

// MatMulTransB computes C = A·Bᵀ where A is (m×k) and B is (n×k), producing
// an (m×n) result.
func MatMulTransB(a, b *Tensor) *Tensor {
	if a.NDim() != 2 || b.NDim() != 2 {
		panic("tensor: MatMulTransB requires 2-D operands")
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic("tensor: MatMulTransB inner dimension mismatch")
	}
	out := New(m, n)
	parallelForRows(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Data[i*k : (i+1)*k]
			crow := out.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				brow := b.Data[j*k : (j+1)*k]
				var s float32
				for p := range arow {
					s += arow[p] * brow[p]
				}
				crow[j] = s
			}
		}
	})
	return out
}

// parallelForRows distributes whole rows across workers; it parallelizes
// even small row counts because each row can be heavy.
func parallelForRows(rows int, fn func(lo, hi int)) {
	workers := maxWorkers
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		fn(0, rows)
		return
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
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
