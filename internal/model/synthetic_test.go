package model

import (
	"slices"
	"testing"

	"radar/internal/quant"
)

// syntheticQuantRef is SyntheticQuant stepping its LCG one state at a
// time, the loop the eight-lane fill is held to.
func syntheticQuantRef(tab *ShapeTable) *quant.Model {
	m := &quant.Model{}
	x := uint32(0x9E3779B9)
	for _, ls := range tab.Layers {
		q := make([]int8, ls.Weights)
		for i := range q {
			x = x*1664525 + 1013904223
			q[i] = int8(x >> 24)
		}
		m.Layers = append(m.Layers, &quant.Layer{Name: ls.Name, Q: q, Scale: 1})
	}
	return m
}

// TestSyntheticQuantMatchesRef pins SyntheticQuant to the one-step loop,
// byte for byte, on the full ResNet-18 table and on layers of every size
// mod 8 — empty, shorter than one eight-lane step, on and off it — so the
// state carried from layer to layer is checked after each kind of tail.
func TestSyntheticQuantMatchesRef(t *testing.T) {
	odd := &ShapeTable{Model: "odd"}
	for i, w := range []int{0, 1, 7, 8, 9, 3, 16, 17, 0, 23, 1000, 4093, 8, 65537} {
		odd.Layers = append(odd.Layers, LayerShape{Name: string(rune('a' + i)), Weights: w})
	}
	for _, tab := range []*ShapeTable{ResNet18ImageNetShapes(), odd} {
		got, want := SyntheticQuant(tab), syntheticQuantRef(tab)
		if len(got.Layers) != len(want.Layers) {
			t.Fatalf("%s: %d layers, reference %d", tab.Model, len(got.Layers), len(want.Layers))
		}
		for i, w := range want.Layers {
			g := got.Layers[i]
			if g.Name != w.Name || g.Scale != w.Scale || !slices.Equal(g.Q, w.Q) {
				t.Fatalf("%s: layer %d (%s, %d weights) differs from the one-step loop", tab.Model, i, w.Name, len(w.Q))
			}
		}
	}
}

// BenchmarkSyntheticQuant builds the 11.7 MB ResNet-18 image the scan
// benchmarks use, against the one-step loop.
func BenchmarkSyntheticQuant(b *testing.B) {
	tab := ResNet18ImageNetShapes()
	b.Run("lanes=8", func(b *testing.B) {
		for b.Loop() {
			SyntheticQuant(tab)
		}
	})
	b.Run("ref", func(b *testing.B) {
		for b.Loop() {
			syntheticQuantRef(tab)
		}
	})
}
