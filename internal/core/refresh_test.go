package core

import (
	"slices"
	"testing"
	"time"

	"radar/internal/quant"
)

func TestRekeyChangesSecretsKeepsDetection(t *testing.T) {
	b := loadTiny(t)
	cfg := DefaultConfig(16)
	p := Protect(b.QModel, cfg)
	oldKeys := make([]uint16, len(p.Schemes))
	for i, s := range p.Schemes {
		oldKeys[i] = s.Key
	}
	p.Rekey(0x5EED)
	same := 0
	for i, s := range p.Schemes {
		if s.Key == oldKeys[i] {
			same++
		}
	}
	if same == len(p.Schemes) {
		t.Fatal("rekey did not rotate any keys")
	}
	if flagged := p.Scan(); len(flagged) != 0 {
		t.Fatalf("clean model flagged after rekey: %v", flagged)
	}
	b.QModel.FlipBit(quant.BitAddress{LayerIndex: 0, WeightIndex: 0, Bit: quant.MSB})
	if len(p.Scan()) != 1 {
		t.Fatal("detection broken after rekey")
	}
}

// TestRekeyRepairsBeforeRotating: a flip already in the weights when Rekey
// starts is flagged and repaired by Rekey itself — zeroed, or restored bit
// for bit with Correct — instead of being laundered into the fresh goldens,
// and every layer's last-verified stamp dates from the rekey.
func TestRekeyRepairsBeforeRotating(t *testing.T) {
	for _, correct := range []bool{false, true} {
		m := guardTestModel()
		p := Protect(m, Config{G: 16, Interleave: true, SigBits: 2, Seed: 5, Correct: correct})
		clean := m.Snapshot()
		a := quant.BitAddress{LayerIndex: 1, WeightIndex: 17, Bit: quant.MSB}
		l := m.Layers[a.LayerIndex]
		// A physical flip (no observer fires), and its group under the
		// secrets it landed under.
		l.Q[a.WeightIndex] = quant.FlipBit(l.Q[a.WeightIndex], a.Bit)
		g := p.GroupOf(a)
		began := time.Now()
		flagged, zeroed := p.Rekey(0x5EED)
		if !slices.Contains(flagged, g) {
			t.Fatalf("correct=%v: Rekey flagged %v, not the flipped group %v", correct, flagged, g)
		}
		if correct && (zeroed != 0 || !modelEquals(m, clean)) {
			t.Fatalf("correct=%v: Rekey zeroed %d weights; want the flip restored bit for bit", correct, zeroed)
		}
		if !correct && (zeroed == 0 || l.Q[a.WeightIndex] != 0) {
			t.Fatalf("correct=%v: Rekey zeroed %d weights and left the flipped one at %d, want it zeroed", correct, zeroed, l.Q[a.WeightIndex])
		}
		if again := p.Scan(); len(again) != 0 {
			t.Fatalf("correct=%v: Scan after Rekey flags %v", correct, again)
		}
		if oldest, _ := p.Verified(); oldest.Before(began) {
			t.Fatalf("correct=%v: oldest stamp %v predates the rekey (began %v)", correct, oldest, began)
		}
	}
}
