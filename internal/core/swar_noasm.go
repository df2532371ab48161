//go:build !amd64

package core

import "unsafe"

// The AVX2 leg exists on amd64 only; swarAVX2 is never true elsewhere.
func addWords4AVX2(accE, accO *uint64, s0, s1, s2, s3 unsafe.Pointer, m *[blockRows]uint64, words int) {
	panic("core: no AVX2 leg on this GOARCH")
}

func settleAVX2(accE, accO *uint64, sig *uint8, words int, settle, sigC uint64) {
	panic("core: no AVX2 leg on this GOARCH")
}
