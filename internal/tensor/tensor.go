// Package tensor provides a minimal float32 n-dimensional array with the
// operations needed to train and run convolutional neural networks:
// matrix multiplication, im2col-based convolution, pooling and the usual
// elementwise kernels. It is the numeric substrate for the RADAR
// reproduction and deliberately depends only on the standard library.
// Every kernel runs serially on the caller's goroutine: a caller holding a
// batch spreads it over CPUs itself, once, through cpu.Parallel.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense, row-major float32 array with an explicit shape.
// The zero value is not useful; construct tensors with New or
// FromSlice.
type Tensor struct {
	// Shape holds the extent of each dimension, outermost first.
	Shape []int
	// Data is the backing storage in row-major order. len(Data) equals the
	// product of Shape.
	Data []float32
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", s, shape))
		}
		n *= s
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must match the shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (volume %d)", len(data), shape, n))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// NDim returns the number of dimensions.
func (t *Tensor) NDim() int { return len(t.Shape) }

// Volume returns the product of the given shape.
func Volume(shape []int) int {
	n := 1
	for _, s := range shape {
		n *= s
	}
	return n
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.Shape) != len(b.Shape) {
		return false
	}
	for i := range a.Shape {
		if a.Shape[i] != b.Shape[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of t with a new shape of equal volume. The data is
// shared with t.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	if Volume(shape) != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape volume %d to %v", len(t.Data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero resets every element to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// RandNormal fills t with draws from N(0, std²) using rng.
func (t *Tensor) RandNormal(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// KaimingInit fills t with He-normal initialization for a layer with the
// given fan-in, the standard initialization for ReLU networks.
func (t *Tensor) KaimingInit(rng *rand.Rand, fanIn int) {
	std := math.Sqrt(2.0 / float64(fanIn))
	t.RandNormal(rng, std)
}

// MaxAbs returns the largest absolute value in t (0 for empty tensors;
// NaNs are passed over). The absolute value clears the sign bit rather
// than branching on it: on activations of either sign a branch
// mispredicts half the time.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.Data {
		if v = math.Float32frombits(math.Float32bits(v) &^ (1 << 31)); v > m {
			m = v
		}
	}
	return m
}

// Sum returns the sum of all elements in float64 precision.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// String implements fmt.Stringer with a compact shape+preview rendering.
func (t *Tensor) String() string {
	n := len(t.Data)
	if n > 8 {
		n = 8
	}
	return fmt.Sprintf("Tensor%v%v…", t.Shape, t.Data[:n])
}
