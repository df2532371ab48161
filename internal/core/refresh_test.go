package core

import (
	"testing"

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
