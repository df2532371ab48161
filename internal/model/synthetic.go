package model

import "radar/internal/quant"

// SyntheticQuant builds a quantized weight image with the given layer
// shapes and deterministic pseudo-random int8 weights, without a backing
// float network. It exists so scan/protect benchmarks and the worker-sweep
// experiment can run at the paper's full ImageNet ResNet-18 scale (11.7 MB
// of weights) without training anything. The layers have no Param; the
// float-sync steps of FlipBit, Restore and Recover are no-ops on such pure
// DRAM images, so all protection paths work. Corrupting Layer.Q directly
// also works but bypasses dirty tracking (use MarkLayerDirty, or a full
// Scan).
func SyntheticQuant(tab *ShapeTable) *quant.Model {
	m := &quant.Model{}
	x := uint32(0x9E3779B9)
	for _, ls := range tab.Layers {
		q := make([]int8, ls.Weights)
		x = lcgFill(q, x)
		m.Layers = append(m.Layers, &quant.Layer{Name: ls.Name, Q: q, Scale: 1})
	}
	return m
}

// The LCG of SyntheticQuant: a fixed stream, fully reproducible. lcgA8 and
// lcgC8 step it eight places at once: x ↦ a⁸x + c(a⁷+…+a+1) mod 2³².
const lcgA, lcgC = 1664525, 1013904223

var lcgA8, lcgC8 = lcgJump(8)

// lcgJump returns the multiplier and increment of k LCG steps in one.
func lcgJump(k int) (a, c uint32) {
	a = 1
	for range k {
		a, c = a*lcgA, c*lcgA+lcgC
	}
	return a, c
}

// lcgFill writes the top byte of each of the next len(q) LCG states after x
// into q and returns the last state. It runs the stream as eight
// interleaved lanes, each eight steps ahead of its last value, so the
// multiplies do not wait on one another; the last len(q) mod 8 steps run
// one at a time.
func lcgFill(q []int8, x uint32) uint32 {
	i := 0
	if len(q) >= 8 {
		s0 := x*lcgA + lcgC
		s1 := s0*lcgA + lcgC
		s2 := s1*lcgA + lcgC
		s3 := s2*lcgA + lcgC
		s4 := s3*lcgA + lcgC
		s5 := s4*lcgA + lcgC
		s6 := s5*lcgA + lcgC
		s7 := s6*lcgA + lcgC
		for {
			b := q[i : i+8 : i+8]
			b[0], b[1], b[2], b[3] = int8(s0>>24), int8(s1>>24), int8(s2>>24), int8(s3>>24)
			b[4], b[5], b[6], b[7] = int8(s4>>24), int8(s5>>24), int8(s6>>24), int8(s7>>24)
			if i += 8; i+8 > len(q) {
				break
			}
			s0, s1, s2, s3 = s0*lcgA8+lcgC8, s1*lcgA8+lcgC8, s2*lcgA8+lcgC8, s3*lcgA8+lcgC8
			s4, s5, s6, s7 = s4*lcgA8+lcgC8, s5*lcgA8+lcgC8, s6*lcgA8+lcgC8, s7*lcgA8+lcgC8
		}
		x = s7
	}
	for ; i < len(q); i++ {
		x = x*lcgA + lcgC
		q[i] = int8(x >> 24)
	}
	return x
}
