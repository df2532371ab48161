package core

// StorageBreakdown itemizes the secure on-chip storage a RADAR deployment
// needs. The paper's headline numbers (8.2 KB for ResNet-20 at G=8, 5.6 KB
// for ResNet-18 at G=512) count the signature bits.
type StorageBreakdown struct {
	// SignatureBits is the total golden-signature storage.
	SignatureBits int
	// KeyBits is the per-layer masking keys (16 bits each).
	KeyBits int
	// OffsetBits is the per-layer interleave offsets (8 bits each,
	// 0 when interleaving is disabled).
	OffsetBits int
}

// TotalBytes returns the full secure-storage requirement in bytes.
func (b StorageBreakdown) TotalBytes() float64 {
	return float64(b.SignatureBits+b.KeyBits+b.OffsetBits) / 8
}

// SignatureKB returns the signature storage in KB (the paper's metric).
func (b StorageBreakdown) SignatureKB() float64 {
	return float64(b.SignatureBits) / 8 / 1024
}

// Storage reports the secure-storage requirement of this protector: every
// layer shares one shape, so it is StorageForWeights over the model's
// layer sizes.
func (p *Protector) Storage() StorageBreakdown {
	weights := make([]int, len(p.Model.Layers))
	for li, l := range p.Model.Layers {
		weights[li] = len(l.Q)
	}
	return StorageForWeights(weights, p.shape.G, p.shape.SigBits, p.shape.Interleave)
}

// StorageForWeights computes the signature storage for an arbitrary layer
// size inventory without instantiating a model — used with the full-size
// shape tables for the paper's storage numbers (Fig 6, Table V).
func StorageForWeights(layerWeights []int, g, sigBits int, interleave bool) StorageBreakdown {
	var b StorageBreakdown
	for _, l := range layerWeights {
		if l == 0 {
			continue
		}
		n := (l + g - 1) / g
		b.SignatureBits += n * sigBits
		b.KeyBits += KeyBits
		if interleave {
			b.OffsetBits += 8
		}
	}
	return b
}
