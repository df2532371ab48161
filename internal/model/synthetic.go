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
		for i := range q {
			x = x*1664525 + 1013904223 // LCG: fixed stream, fully reproducible
			q[i] = int8(x >> 24)
		}
		m.Layers = append(m.Layers, &quant.Layer{Name: ls.Name, Q: q, Scale: 1})
	}
	return m
}
