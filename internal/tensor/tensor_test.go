package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if x.NDim() != 3 || x.Shape[1] != 3 {
		t.Fatalf("bad shape bookkeeping: %v", x.Shape)
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive dimension")
		}
	}()
	New(2, 0)
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4)
	x.Set(7.5, 2, 1)
	if got := x.At(2, 1); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if x.Data[2*4+1] != 7.5 {
		t.Fatal("row-major layout violated")
	}
}

func TestAtPanicsOutOfBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected out-of-bounds panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestCloneIsDeep(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3}, 3)
	y := x.Clone()
	y.Data[0] = 99
	if x.Data[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	y := x.Reshape(4)
	y.Data[3] = 9
	if x.At(1, 1) != 9 {
		t.Fatal("Reshape must share storage")
	}
}

func TestReshapePanicsOnVolumeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected volume mismatch panic")
		}
	}()
	New(2, 2).Reshape(5)
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{4, 5, 6}, 3)
	if got := Add(a, b).Data; got[0] != 5 || got[2] != 9 {
		t.Fatalf("Add = %v", got)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(5, 5)
	a.RandNormal(rng, 1)
	id := New(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(1, i, i)
	}
	c := MatMul(a, id)
	for i := range a.Data {
		if !almostEq(float64(c.Data[i]), float64(a.Data[i]), 1e-6) {
			t.Fatal("A·I != A")
		}
	}
}

// TestMatMulTransposeVariants checks MatMulTransA/B against explicit
// Transpose + MatMul references on random matrices. MatMulTransA must give
// the reference's bits (Conv2D.Backward runs it as MatMulInto over the
// transposed weights), and MatMulTransB must reuse a destination with room.
func TestMatMulTransposeVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(7, 4) // k×m for TransA
	b := New(7, 5)
	a.RandNormal(rng, 1)
	b.RandNormal(rng, 1)

	got := MatMulTransA(a, b)
	want := MatMul(Transpose(a), b)
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("MatMulTransA mismatch at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}

	c := New(6, 4)
	d := New(5, 4)
	c.RandNormal(rng, 1)
	d.RandNormal(rng, 1)
	got2 := MatMulTransB(nil, c, d)
	want2 := MatMul(c, Transpose(d))
	for i := range want2.Data {
		if !almostEq(float64(got2.Data[i]), float64(want2.Data[i]), 1e-4) {
			t.Fatalf("MatMulTransB mismatch at %d", i)
		}
	}
	dirty := make([]float32, 40)
	for i := range dirty {
		dirty[i] = float32(math.NaN())
	}
	got3 := MatMulTransB(dirty, c, d)
	if &got3.Data[0] != &dirty[0] {
		t.Fatal("MatMulTransB did not reuse a destination with room to spare")
	}
	for i := range got2.Data {
		if math.Float32bits(got3.Data[i]) != math.Float32bits(got2.Data[i]) {
			t.Fatalf("MatMulTransB over a dirty destination differs at %d", i)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected inner-dimension panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2))
}

// TestMatMulAssociativityProperty uses testing/quick to verify
// (A·B)·v == A·(B·v) on random small matrices — a linear-algebra invariant
// that exercises accumulation order robustness.
func TestMatMulAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(4, 3)
		b := New(3, 2)
		v := New(2, 1)
		a.RandNormal(rng, 1)
		b.RandNormal(rng, 1)
		v.RandNormal(rng, 1)
		left := MatMul(MatMul(a, b), v)
		right := MatMul(a, MatMul(b, v))
		for i := range left.Data {
			if !almostEq(float64(left.Data[i]), float64(right.Data[i]), 1e-3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTranspose(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose(a)
	if at.Shape[0] != 3 || at.Shape[1] != 2 {
		t.Fatalf("Transpose shape = %v", at.Shape)
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatal("Transpose values wrong")
	}
}

func TestIm2ColIdentityKernel(t *testing.T) {
	// 1×1 kernel, stride 1, no pad: im2col is the identity flatten.
	x := FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	cols := Im2Col(nil, x, 1, 1, 1, 0)
	if cols.Shape[0] != 1 || cols.Shape[1] != 4 {
		t.Fatalf("cols shape = %v", cols.Shape)
	}
	for i, v := range []float32{1, 2, 3, 4} {
		if cols.Data[i] != v {
			t.Fatalf("cols = %v", cols.Data)
		}
	}
}

func TestIm2ColKnown3x3(t *testing.T) {
	// 3×3 input, 3×3 kernel, pad 1 → nine 3×3 output positions; check a
	// couple of hand-computed entries including zero padding.
	x := FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8, 9}, 1, 3, 3)
	cols := Im2Col(nil, x, 3, 3, 1, 1)
	if cols.Shape[0] != 9 || cols.Shape[1] != 9 {
		t.Fatalf("cols shape = %v", cols.Shape)
	}
	// Row 4 is the kernel center (ki=1,kj=1): equals the input itself.
	for i := 0; i < 9; i++ {
		if cols.Data[4*9+i] != x.Data[i] {
			t.Fatalf("center row = %v", cols.Data[4*9:5*9])
		}
	}
	// Row 0 (ki=0,kj=0) at output position (0,0) reads x[-1,-1] = padding 0.
	if cols.Data[0] != 0 {
		t.Fatal("padding not zero")
	}
	// Row 0 at output position (1,1) reads x[0,0] = 1.
	if cols.Data[0*9+4] != 1 {
		t.Fatalf("row0 = %v", cols.Data[:9])
	}
}

func TestCol2ImAdjointProperty(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> — the defining adjoint identity.
	rng := rand.New(rand.NewSource(3))
	c, h, w, kh, kw, stride, pad := 2, 6, 5, 3, 3, 2, 1
	x := New(c, h, w)
	x.RandNormal(rng, 1)
	cols := Im2Col(nil, x, kh, kw, stride, pad)
	y := New(cols.Shape...)
	y.RandNormal(rng, 1)
	var lhs float64
	for i := range cols.Data {
		lhs += float64(cols.Data[i]) * float64(y.Data[i])
	}
	back := New(c, h, w)
	Col2Im(back.Data, y, c, h, w, kh, kw, stride, pad)
	var rhs float64
	for i := range x.Data {
		rhs += float64(x.Data[i]) * float64(back.Data[i])
	}
	if !almostEq(lhs, rhs, 1e-2) {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

// TestCol2ImAccumulates: Col2Im adds to what its destination holds. With
// stride = kernel every pixel gets one contribution, so folding twice
// doubles the image exactly.
func TestCol2ImAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	y := New(2*2*2, 2*2)
	y.RandNormal(rng, 1)
	once, twice := New(2, 4, 4), New(2, 4, 4)
	Col2Im(once.Data, y, 2, 4, 4, 2, 2, 2, 0)
	Col2Im(twice.Data, y, 2, 4, 4, 2, 2, 2, 0)
	Col2Im(twice.Data, y, 2, 4, 4, 2, 2, 2, 0)
	for i, v := range once.Data {
		if twice.Data[i] != 2*v {
			t.Fatalf("second fold at %d: %v, want %v", i, twice.Data[i], 2*v)
		}
	}
}

func TestConvOutSize(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{32, 3, 1, 1, 32},
		{32, 3, 2, 1, 16},
		{224, 7, 2, 3, 112},
		{8, 1, 1, 0, 8},
	}
	for _, c := range cases {
		if got := ConvOutSize(c.in, c.k, c.s, c.p); got != c.want {
			t.Errorf("ConvOutSize(%d,%d,%d,%d) = %d, want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
}

func TestGlobalAvgPool(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	out := GlobalAvgPool(x)
	if out.At(0, 0) != 2.5 || out.At(0, 1) != 25 {
		t.Fatalf("GlobalAvgPool = %v", out.Data)
	}
	grad := FromSlice([]float32{4, 8}, 1, 2)
	back := GlobalAvgPoolBackward(grad, 2, 2)
	if back.Data[0] != 1 || back.Data[4] != 2 {
		t.Fatalf("GlobalAvgPoolBackward = %v", back.Data)
	}
}

func TestMaxPool2AndBackward(t *testing.T) {
	x := FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 2, 3,
		1, 1, 4, 1,
	}, 1, 1, 4, 4)
	out, arg := MaxPool2(x)
	want := []float32{4, 8, 9, 4}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("MaxPool2 = %v, want %v", out.Data, want)
		}
	}
	grad := FromSlice([]float32{1, 1, 1, 1}, 1, 1, 2, 2)
	back := MaxPool2Backward(grad, arg, []int{1, 1, 4, 4})
	if back.Data[5] != 1 || back.Data[7] != 1 || back.Data[8] != 1 || back.Data[14] != 1 {
		t.Fatalf("MaxPool2Backward = %v", back.Data)
	}
	var s float32
	for _, v := range back.Data {
		s += v
	}
	if s != 4 {
		t.Fatalf("gradient mass not conserved: %v", s)
	}
}

func TestSumMeanMaxAbs(t *testing.T) {
	x := FromSlice([]float32{-3, 1, 2}, 3)
	if x.Sum() != 0 {
		t.Fatalf("Sum = %v", x.Sum())
	}
	if x.MaxAbs() != 3 {
		t.Fatalf("MaxAbs = %v", x.MaxAbs())
	}
}

func TestKaimingInitStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := New(10000)
	x.KaimingInit(rng, 50)
	var sumsq float64
	for _, v := range x.Data {
		sumsq += float64(v) * float64(v)
	}
	variance := sumsq / float64(x.Len())
	if !almostEq(variance, 2.0/50.0, 0.005) {
		t.Fatalf("Kaiming variance = %v, want ~%v", variance, 2.0/50.0)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := New(128, 128)
	y := New(128, 128)
	x.RandNormal(rng, 1)
	y.RandNormal(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}
