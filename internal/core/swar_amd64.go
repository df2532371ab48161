package core

import "unsafe"

// The AVX2 leg of the interleaved kernel (swar_amd64.s); see the swar.go
// header.

// addWords4AVX2 is addWords4's loop over words accumulator words, words a
// positive multiple of 4: 8·words bytes are read at each of s0 … s3 and
// read and written at accE and accO. addWords4 has checked the lengths.
//
//go:noescape
func addWords4AVX2(accE, accO *uint64, s0, s1, s2, s3 unsafe.Pointer, m *[blockRows]uint64, words int)

// settleAVX2 is interleaved's settle loop over words accumulator words,
// words a positive multiple of 4: it writes 8·words signature bytes at sig.
//
//go:noescape
func settleAVX2(accE, accO *uint64, sig *uint8, words int, settle, sigC uint64)
