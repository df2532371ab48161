package qinfer

import (
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"

	"radar/internal/cpu"
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
// checkpoint whose next page is unmapped, so the assembly may not load one
// byte outside the slices its wrapper was given. Operands and output are
// placed flush against a PROT_NONE page — for K below, on and off the
// 16-byte step, odd and even M — and the products checked; a kernel that
// over-reads takes a fault here, reported as a test failure. The two
// requantization entries get the same treatment: accumulator rows, add
// operands and outputs flush against the page, on and off the 4-lane step.
func TestGEMMAVX2ReadsInsideItsOperands(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("CPUID reports no AVX2 kernel for this host")
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := rand.New(rand.NewSource(25))
	for _, K := range []int{1, 15, 16, 17, 27, 31, 144, 576} {
		for _, M := range []int{1, 2, 3, 5} {
			const P4 = 8
			a, b := guarded(t, M*K), guarded(t, P4*K)
			for i := range a {
				a[i] = int8(rng.Intn(256) - 128)
			}
			for i := range b {
				b[i] = int8(rng.Intn(256) - 128)
			}
			out := unsafe.Slice((*int32)(unsafe.Pointer(&guarded(t, 4*M*P4)[0])), M*P4)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("M=%d K=%d: the kernel read outside its operands: %v", M, K, r)
					}
				}()
				gemmAVX2(a, b, out, M, K, P4)
			}()
			for m := 0; m < M; m++ {
				for p := 0; p < P4; p++ {
					var want int32
					for k := 0; k < K; k++ {
						want += int32(a[m*K+k]) * int32(b[p*K+k])
					}
					if got := out[m*P4+p]; got != want {
						t.Fatalf("M=%d K=%d: out[%d,%d] = %d, want %d", M, K, m, p, got, want)
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
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("n=%d: a requantization entry read or wrote outside its operands: %v", n, r)
				}
			}()
			lv.conv(dst, acc, 0.5, -0.25, 1e-3)
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
		}()
	}
}
