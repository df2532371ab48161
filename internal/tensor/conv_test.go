package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// im2colRef is the loop Im2Col ran before it wrote into a caller's buffer:
// a fresh zeroed matrix, filled one in-image element at a time.
func im2colRef(x *Tensor, kh, kw, stride, pad int) *Tensor {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	cols := New(c*kh*kw, outH*outW)
	for ch := 0; ch < c; ch++ {
		for ki := 0; ki < kh; ki++ {
			for kj := 0; kj < kw; kj++ {
				row := ((ch*kh)+ki)*kw + kj
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride - pad + ki
					if iy < 0 || iy >= h {
						continue
					}
					for ox := 0; ox < outW; ox++ {
						ix := ox*stride - pad + kj
						if ix < 0 || ix >= w {
							continue
						}
						cols.Data[row*outH*outW+oy*outW+ox] = x.Data[(ch*h+iy)*w+ix]
					}
				}
			}
		}
	}
	return cols
}

// TestIm2ColMatchesRef checks Im2Col bit for bit against the old loop over
// strides 1 and 2, pads 0 and 1 (and 2), kernels 1 and 3 (and 5), and
// images narrower or shorter than the kernel, writing into a NaN-filled
// destination so that every padding zero must be written explicitly.
func TestIm2ColMatchesRef(t *testing.T) {
	type geom struct{ c, h, w, k, stride, pad int }
	var cases []geom
	for _, k := range []int{1, 3} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1} {
				for _, hw := range [][2]int{{7, 6}, {8, 8}, {4, 9}} {
					cases = append(cases, geom{2, hw[0], hw[1], k, stride, pad})
				}
			}
		}
	}
	cases = append(cases,
		geom{3, 2, 2, 3, 1, 1}, // h, w < k
		geom{2, 1, 2, 3, 1, 1}, // h < k
		geom{1, 2, 1, 3, 2, 1}, // w < k, strided
		geom{2, 1, 1, 5, 1, 2}, // every column reads outside the image for some kj
		geom{1, 3, 3, 5, 2, 2},
	)
	rng := rand.New(rand.NewSource(11))
	for _, g := range cases {
		t.Run(fmt.Sprintf("c%d_%dx%d_k%d_s%d_p%d", g.c, g.h, g.w, g.k, g.stride, g.pad), func(t *testing.T) {
			x := New(g.c, g.h, g.w)
			x.RandNormal(rng, 1)
			want := im2colRef(x, g.k, g.k, g.stride, g.pad)
			dirty := make([]float32, want.Len()+3)
			for i := range dirty {
				dirty[i] = float32(math.NaN())
			}
			for _, dst := range [][]float32{nil, dirty[:1], dirty} {
				got := Im2Col(dst, x, g.k, g.k, g.stride, g.pad)
				if !SameShape(got, want) {
					t.Fatalf("shape %v, want %v", got.Shape, want.Shape)
				}
				for i := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("cap(dst) %d: element %d is %v, want %v", cap(dst), i, got.Data[i], want.Data[i])
					}
				}
			}
			if got := Im2Col(dirty, x, g.k, g.k, g.stride, g.pad); &got.Data[0] != &dirty[0] {
				t.Fatal("Im2Col did not reuse a destination with room to spare")
			}
		})
	}
}
