package tensor

import (
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"

	"radar/internal/cpu"
)

// guarded returns n writable float32s that end on the last byte before an
// inaccessible page, so a load of even one byte past them faults.
func guarded(t *testing.T, n int) []float32 {
	t.Helper()
	page := syscall.Getpagesize()
	span := (4*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, span+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	if err := syscall.Mprotect(mem[span:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&mem[span-4*n])), n)
}

// TestAxpyAVX2ReadsInsideItsOperands: the AVX2 leg is handed bare
// pointers, so it may not load one element past the n8 columns it was
// given. c0, c1 and the four B rows each end flush against a PROT_NONE
// page, for widths on the 8-column step, and the sums are checked
// against the Go loop; a leg that over-reads takes a fault here, reported
// as a test failure.
func TestAxpyAVX2ReadsInsideItsOperands(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("CPUID reports no AVX2 leg for this host")
	}
	axpyLegs(t) // restores the host's choice when the test ends
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := rand.New(rand.NewSource(39))
	for _, n8 := range []int{8, 16, 24, 64, 256, 1024} {
		var ops [6][]float32 // c0, c1, b0 … b3
		for i := range ops {
			ops[i] = guarded(t, n8)
			for j := range ops[i] {
				ops[i][j] = float32(rng.NormFloat64())
			}
		}
		var s [8]float32
		for i := range s {
			s[i] = float32(rng.NormFloat64())
		}
		// The Go loop's answer, from copies packed as gemmRows packs B.
		c0, c1 := append([]float32(nil), ops[0]...), append([]float32(nil), ops[1]...)
		b := make([]float32, 0, 4*n8)
		for _, row := range ops[2:] {
			b = append(b, row...)
		}
		axpyAVX2 = false
		axpy2x4(c0, c1, b, s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7])
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("n8=%d: the leg read outside its operands: %v", n8, r)
				}
			}()
			axpy2x4AVX2(&ops[0][0], &ops[1][0], &ops[2][0], &ops[3][0], &ops[4][0], &ops[5][0], n8,
				s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7])
		}()
		sameBits(t, "c0", FromSlice(ops[0], n8), FromSlice(c0, n8))
		sameBits(t, "c1", FromSlice(ops[1], n8), FromSlice(c1, n8))
	}
}
