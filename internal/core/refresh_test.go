package core

import (
	"testing"

	"radar/internal/quant"
)

func TestRefreshLayerAcceptsLegitimateUpdate(t *testing.T) {
	b := loadTiny(t)
	p := Protect(b.QModel, DefaultConfig(16))
	// A legitimate update: rewrite a whole layer (e.g. fine-tuned weights).
	l := b.QModel.Layers[2]
	for i := range l.Q {
		l.Q[i] = int8((i*13)%250 - 125)
	}
	l.Sync()
	if len(p.ScanLayer(2)) == 0 {
		t.Fatal("update should initially mismatch the golden signatures")
	}
	p.RefreshLayer(2)
	if flagged := p.Scan(); len(flagged) != 0 {
		t.Fatalf("scan after refresh flagged %v", flagged)
	}
	// Detection still works after refresh.
	b.QModel.FlipBit(quant.BitAddress{LayerIndex: 2, WeightIndex: 1, Bit: quant.MSB})
	if len(p.ScanLayer(2)) != 1 {
		t.Fatal("refreshed layer no longer detects flips")
	}
}

func TestRekeyChangesSecretsKeepsDetection(t *testing.T) {
	b := loadTiny(t)
	cfg := DefaultConfig(16)
	p := Protect(b.QModel, cfg)
	oldKeys := make([]uint16, len(p.Schemes))
	for i, s := range p.Schemes {
		oldKeys[i] = s.Key
	}
	cfg.Seed = 0x5EED
	p.Rekey(cfg)
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
