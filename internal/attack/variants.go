package attack

import (
	"math/rand"

	"radar/internal/data"
	"radar/internal/quant"
	"radar/internal/tensor"
)

// sampleBatch draws a random batch from d using rng.
func sampleBatch(d *data.Dataset, batch int, rng *rand.Rand) (*tensor.Tensor, []int) {
	if batch <= 0 || batch > d.Len() {
		batch = d.Len()
	}
	idx := make([]int, batch)
	for i := range idx {
		idx[i] = rng.Intn(d.Len())
	}
	return d.Subset(idx).Batch(0, batch)
}

// RandomMSB flips n uniformly random MSBs (bit 7) — used by the paper's
// §VI.B detection-miss-rate micro-experiment.
func RandomMSB(m *quant.Model, n int, seed int64) Profile {
	rng := rand.New(rand.NewSource(seed))
	var profile Profile
	for i := 0; i < n; i++ {
		li := rng.Intn(len(m.Layers))
		wi := rng.Intn(len(m.Layers[li].Q))
		addr := quant.BitAddress{LayerIndex: li, WeightIndex: wi, Bit: quant.MSB}
		before, after := m.FlipBit(addr)
		profile = append(profile, Flip{Addr: addr, Before: before, After: after})
	}
	return profile
}

// PairedEvasion implements the §VIII "flip multiple bits in a group"
// knowledgeable attacker: for each flip already committed in base, it adds
// a complementary MSB flip in the opposite direction (0→1 paired with
// 1→0) on a weight the attacker believes shares a checksum group —
// assuming contiguous grouping of size g, since the secret interleaving is
// unknown to the attacker. The extra flips aim to cancel the addition
// checksum. Returns only the extra flips.
func PairedEvasion(m *quant.Model, base Profile, g int, seed int64) Profile {
	rng := rand.New(rand.NewSource(seed))
	var extra Profile
	for _, f := range base {
		l := m.Layers[f.Addr.LayerIndex]
		// Direction of the original MSB transition (0→1 or 1→0).
		origBit := quant.Bit(f.Before, quant.MSB)
		wantBit := 1 - origBit // partner must flip in the opposite direction
		lo := (f.Addr.WeightIndex / g) * g
		hi := lo + g
		if hi > len(l.Q) {
			hi = len(l.Q)
		}
		// Scan the contiguous group for a partner whose MSB currently has
		// the opposite value; prefer a random start to avoid bias.
		n := hi - lo
		start := lo
		if n > 0 {
			start = lo + rng.Intn(n)
		}
		found := -1
		for k := 0; k < n; k++ {
			i := lo + (start-lo+k)%n
			if i == f.Addr.WeightIndex {
				continue
			}
			if quant.Bit(l.Q[i], quant.MSB) == wantBit {
				found = i
				break
			}
		}
		if found < 0 {
			continue // no cancelling partner available in this group
		}
		addr := quant.BitAddress{LayerIndex: f.Addr.LayerIndex, WeightIndex: found, Bit: quant.MSB}
		before, after := m.FlipBit(addr)
		extra = append(extra, Flip{Addr: addr, Before: before, After: after})
	}
	return extra
}

// MSB1Config returns the §VIII configuration of an attacker avoiding the
// MSB entirely: PBFA restricted to bit 6 (MSB-1). The paper observes ~3×
// more flips are needed for comparable damage.
func MSB1Config(numFlips int, seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.NumFlips = numFlips
	cfg.AllowedBits = []int{6}
	return cfg
}

// BitPositionStats classifies a set of profiles the way Table I does:
// counts of MSB 0→1 flips, MSB 1→0 flips, and flips on any other bit.
type BitPositionStats struct {
	// MSB01 counts MSB flips where the stored bit went 0→1.
	MSB01 int
	// MSB10 counts MSB flips where the stored bit went 1→0.
	MSB10 int
	// Others counts flips on bits 0–6.
	Others int
}

// Classify accumulates Table-I statistics over profiles.
func Classify(profiles []Profile) BitPositionStats {
	var s BitPositionStats
	for _, p := range profiles {
		for _, f := range p {
			if f.Addr.Bit != quant.MSB {
				s.Others++
				continue
			}
			if quant.Bit(f.Before, quant.MSB) == 0 {
				s.MSB01++
			} else {
				s.MSB10++
			}
		}
	}
	return s
}

// WeightRangeStats buckets the pre-flip quantized values of targeted
// weights the way Table II does.
type WeightRangeStats struct {
	// NegLarge counts weights in (−128, −32].
	NegLarge int
	// NegSmall counts weights in (−32, 0].
	NegSmall int
	// PosSmall counts weights in (0, 32).
	PosSmall int
	// PosLarge counts weights in [32, 127].
	PosLarge int
}

// ClassifyRanges accumulates Table-II statistics over profiles.
func ClassifyRanges(profiles []Profile) WeightRangeStats {
	var s WeightRangeStats
	for _, p := range profiles {
		for _, f := range p {
			v := int(f.Before)
			switch {
			case v <= -32:
				s.NegLarge++
			case v <= 0:
				s.NegSmall++
			case v < 32:
				s.PosSmall++
			default:
				s.PosLarge++
			}
		}
	}
	return s
}
