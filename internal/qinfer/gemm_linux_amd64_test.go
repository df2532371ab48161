package qinfer

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"

	"radar/internal/cpu"
	"radar/internal/tensor"
)

// guarded returns n writable bytes that end on the last byte before an
// inaccessible page, so a load of even one byte past them faults.
func guarded(t *testing.T, n int) []int8 {
	t.Helper()
	page := syscall.Getpagesize()
	span := (n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, span+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[span:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*int8)(unsafe.Pointer(&mem[span-n])), n)
}

// TestGEMMAVX2ReadsInsideItsOperands: a weight row can alias an mmap'd
// checkpoint whose next page is unmapped, and the implicit operand's
// padded-width loads run past the last real pixel, so the assembly may not
// load one byte outside the slices its wrappers were given. The widening
// entry gets weight rows flush against a PROT_NONE page — K on and off the
// 16-byte step, odd and even, odd and even M — and the kernel gets its
// plane buffer, sized exactly as compute sizes it (slack included), flush
// against one at stride 1 and 2 over the engine's conv shapes, with the
// sums checked; a kernel that over-reads takes a fault here, reported as a
// test failure. The two requantization entries get the same treatment:
// accumulator rows, add operands and outputs flush against the page, on
// and off the 4-lane step, and conv planes whose rows lie in a padded
// width.
func TestGEMMAVX2ReadsInsideItsOperands(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("CPUID reports no AVX2 kernel for this host")
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := rand.New(rand.NewSource(25))
	noFault := func(label string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: an AVX2 entry read or wrote outside its operands: %v", label, r)
			}
		}()
		f()
	}
	for _, K := range []int{1, 9, 15, 16, 17, 27, 31, 144, 576} {
		for _, M := range []int{1, 2, 3, 5} {
			ke := K + K&1
			a := guarded(t, M*K)
			for i := range a {
				a[i] = int8(rng.Intn(256) - 128)
			}
			wide := unsafe.Slice((*int16)(unsafe.Pointer(&guarded(t, 2*M*ke)[0])), M*ke)
			noFault(fmt.Sprintf("widen M=%d K=%d", M, K), func() { widenAVX2(wide, a, M, K) })
			for m := 0; m < M; m++ {
				for k := 0; k < ke; k++ {
					want := int16(0)
					if k < K {
						want = int16(a[m*K+k])
					}
					if got := wide[m*ke+k]; got != want {
						t.Fatalf("widen M=%d K=%d: row %d element %d = %d, want %d", M, K, m, k, got, want)
					}
				}
			}
		}
	}
	for _, g := range []struct{ inC, outC, k, stride, pad, h, w int }{
		{3, 5, 3, 1, 1, 8, 8}, {1, 4, 3, 1, 1, 5, 7}, {2, 3, 3, 2, 1, 9, 7}, {4, 8, 3, 2, 1, 8, 8},
		{3, 4, 1, 2, 0, 8, 8}, {3, 4, 7, 2, 3, 11, 9}, {2, 3, 5, 2, 1, 2, 3}, {3, 7, 3, 1, 1, 16, 16},
	} {
		c := randConv(rng, g.inC, g.outC, g.k, g.stride, g.pad, false)
		x := randInput(rng, 1, g.inC, g.h, g.w)
		outH, outW := tensor.ConvOutSize(g.h, g.k, g.stride, g.pad), tensor.ConvOutSize(g.w, g.k, g.stride, g.pad)
		geom := c.implicitGeom(g.h, g.w, outH, outW)
		K := g.inC * g.k * g.k
		ke, m4 := K+K&1, (g.outC+3)&^3
		planes := guarded(t, geom.size)
		geom.split(planes, x.Q, g.inC, g.h, g.w)
		koff := make([]int, ke)
		c.offsets(&geom, koff)
		wide := make([]int16, m4*ke)
		widenAVX2(wide, c.w, g.outC, K)
		acc := unsafe.Slice((*int32)(unsafe.Pointer(&guarded(t, 4*m4*geom.p8)[0])), m4*geom.p8)
		label := fmt.Sprintf("%s/h%dw%d", c.name, g.h, g.w)
		noFault(label, func() { implicitAVX2(wide, koff, planes, acc, m4, geom.p8) })
		for oc := 0; oc < g.outC; oc++ {
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					var want int32
					for ic := 0; ic < g.inC; ic++ {
						for ky := 0; ky < g.k; ky++ {
							for kx := 0; kx < g.k; kx++ {
								iy, ix := oy*g.stride-g.pad+ky, ox*g.stride-g.pad+kx
								if iy >= 0 && iy < g.h && ix >= 0 && ix < g.w {
									want += int32(c.w[((oc*g.inC+ic)*g.k+ky)*g.k+kx]) * int32(x.Q[(ic*g.h+iy)*g.w+ix])
								}
							}
						}
					}
					if got := acc[oc*geom.p8+oy*geom.phW+ox]; got != want {
						t.Fatalf("%s: sum (%d, %d, %d) = %d, want %d", label, oc, oy, ox, got, want)
					}
				}
			}
		}
	}
	lv := newLevels(0.05, false)
	for _, n := range []int{4, 5, 7, 8, 64, 1027} {
		acc := unsafe.Slice((*int32)(unsafe.Pointer(&guarded(t, 4*n)[0])), n)
		mq, sq, dst := guarded(t, n), guarded(t, n), guarded(t, n)
		for i := range acc {
			acc[i] = int32(rng.Intn(1<<16) - 1<<15)
			mq[i], sq[i] = int8(rng.Intn(256)-128), int8(rng.Intn(256)-128)
		}
		noFault(fmt.Sprintf("requantize n=%d", n), func() {
			lv.conv(dst, acc, n, n, 0.5, -0.25, 1e-3)
			for i, got := range dst {
				if want := clampQ((0.5*(1e-3*float64(acc[i])) - 0.25) / float64(lv.scale)); got != want {
					t.Fatalf("n=%d: conv element %d = %d, want %d", n, i, got, want)
				}
			}
			lv.add(dst, mq, sq, 0.03, 0.02)
			for i, got := range dst {
				if want := clampQ((0.03*float64(mq[i]) + 0.02*float64(sq[i])) / float64(lv.scale)); got != want {
					t.Fatalf("n=%d: add element %d = %d, want %d", n, i, got, want)
				}
			}
		})
	}
	// Conv planes in padded-width rows: the last row's sums end flush
	// against the page, and so does the last output.
	for _, g := range []struct{ rows, w, ld int }{{16, 16, 18}, {8, 8, 10}, {4, 4, 6}, {2, 2, 4}, {7, 5, 9}, {3, 8, 9}} {
		n := (g.rows-1)*g.ld + g.w
		acc := unsafe.Slice((*int32)(unsafe.Pointer(&guarded(t, 4*n)[0])), n)
		for i := range acc {
			acc[i] = int32(rng.Intn(1<<16) - 1<<15)
		}
		dst := guarded(t, g.rows*g.w)
		noFault(fmt.Sprintf("requantize %d rows of %d at %d", g.rows, g.w, g.ld), func() {
			lv.conv(dst, acc, g.w, g.ld, 0.5, -0.25, 1e-3)
		})
		for r := 0; r < g.rows; r++ {
			for i := 0; i < g.w; i++ {
				if want := clampQ((0.5*(1e-3*float64(acc[r*g.ld+i])) - 0.25) / float64(lv.scale)); dst[r*g.w+i] != want {
					t.Fatalf("%d rows of %d at %d: conv element (%d, %d) = %d, want %d", g.rows, g.w, g.ld, r, i, dst[r*g.w+i], want)
				}
			}
		}
	}
}
