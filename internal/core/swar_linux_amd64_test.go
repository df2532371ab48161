package core

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
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

// TestSWARAVX2ReadsInsideTheLayer: a layer can be an mmap'd checkpoint
// whose next page is unmapped, so the AVX2 leg may not load one byte past
// the weights. Layers are placed flush against a PROT_NONE page — group
// counts from 4 to 9 words, with 0–7 lanes past the last whole word, one
// and several 1024-group chunks, so that across the offsets the last row's
// ring wrap falls in the last whole word, in the last words mod 4 and
// everywhere between, with and without a ragged last row — and their
// signatures checked against SignaturesRangeRef; a leg that over-reads
// takes a fault here, reported as a test failure.
func TestSWARAVX2ReadsInsideTheLayer(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("CPUID reports no AVX2 leg for this host")
	}
	kernelLegs(t) // restores the host's choice when the test ends
	swarAVX2 = true
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := rand.New(rand.NewSource(30))
	ns := []int{1030, 1057, 2085}
	for n := 32; n < 80; n++ {
		ns = append(ns, n)
	}
	for _, g := range []int{8, 512} {
		for _, n := range ns {
			for _, short := range []int{0, 1, 5} { // weights missing from the ragged last row
				q := guarded(t, n*g-short)
				copy(q, randWeights(rng, len(q)))
				for _, off := range []int{0, 1, 3, 7, 8, 13, 29} {
					s := Scheme{G: g, Interleave: true, Offset: off, Key: uint16(rng.Intn(1 << KeyBits)), SigBits: 2 + rng.Intn(2)}
					for _, lo := range []int{0, n / 3} {
						name := fmt.Sprintf("G=%d n=%d l=%d offset=%d [%d,%d)", g, n, len(q), off, lo, n)
						var got []uint8
						func() {
							defer func() {
								if r := recover(); r != nil {
									t.Fatalf("%s: the kernel read outside the layer: %v", name, r)
								}
							}()
							got = s.SignaturesRange(q, lo, n)
						}()
						if want := s.SignaturesRangeRef(q, lo, n); !slices.Equal(got, want) {
							t.Fatalf("%s: signatures differ from SignaturesRangeRef", name)
						}
					}
				}
			}
		}
	}
}
