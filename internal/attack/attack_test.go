package attack

import (
	"testing"

	"radar/internal/model"
	"radar/internal/nn"
	"radar/internal/quant"
)

// loadTiny returns a fresh trained tiny bundle (cached after first call).
func loadTiny(t testing.TB) *model.Bundle {
	t.Helper()
	return model.Load(model.TinySpec())
}

func TestPBFACommitsRequestedFlips(t *testing.T) {
	b := loadTiny(t)
	cfg := DefaultConfig(1)
	cfg.NumFlips = 5
	p := PBFA(b.QModel, b.Attack, cfg)
	if len(p) != 5 {
		t.Fatalf("committed %d flips, want 5", len(p))
	}
	// Every recorded flip must be reflected in the quantized storage.
	for _, f := range p {
		l := b.QModel.Layers[f.Addr.LayerIndex]
		got := l.Q[f.Addr.WeightIndex]
		// The weight may have been flipped again later in the same profile;
		// at minimum the After value must differ from Before in exactly the
		// recorded bit at commit time.
		if f.After != quant.FlipBit(f.Before, f.Addr.Bit) {
			t.Fatalf("flip record inconsistent: %v", f)
		}
		_ = got
	}
}

func TestPBFADegradesAccuracy(t *testing.T) {
	b := loadTiny(t)
	clean := model.Evaluate(b.Net, b.Test, 100)
	cfg := DefaultConfig(2)
	cfg.NumFlips = 10
	PBFA(b.QModel, b.Attack, cfg)
	attacked := model.Evaluate(b.Net, b.Test, 100)
	if attacked >= clean-0.15 {
		t.Fatalf("PBFA too weak: clean %.3f → attacked %.3f", clean, attacked)
	}
}

func TestPBFAPrefersMSB(t *testing.T) {
	// Observation 1 of the paper: PBFA overwhelmingly targets the MSB.
	var profiles []Profile
	for seed := int64(0); seed < 5; seed++ {
		b := loadTiny(t)
		cfg := DefaultConfig(seed)
		cfg.NumFlips = 5
		profiles = append(profiles, PBFA(b.QModel, b.Attack, cfg))
	}
	s := Classify(profiles)
	total := s.MSB01 + s.MSB10 + s.Others
	if total == 0 {
		t.Fatal("no flips recorded")
	}
	if frac := float64(s.MSB01+s.MSB10) / float64(total); frac < 0.8 {
		t.Fatalf("MSB fraction %.2f < 0.8; PBFA should target MSBs", frac)
	}
}

func TestPBFARangeStatsAccountForAllFlips(t *testing.T) {
	// Observation 3 of the paper (small weights dominate the targets) is an
	// emergent property of full-scale trained weight distributions and is
	// reproduced by the Table II experiment on the scaled ResNets (see
	// internal/exp). Here we only verify the bookkeeping: every committed
	// flip lands in exactly one range bucket.
	var profiles []Profile
	total := 0
	for seed := int64(10); seed < 12; seed++ {
		b := loadTiny(t)
		p := PBFA(b.QModel, b.Attack, DefaultConfig(seed))
		total += len(p)
		profiles = append(profiles, p)
	}
	s := ClassifyRanges(profiles)
	if got := s.NegLarge + s.NegSmall + s.PosSmall + s.PosLarge; got != total {
		t.Fatalf("range buckets sum to %d, want %d", got, total)
	}
}

func TestPBFAIncreasesLossMonotonically(t *testing.T) {
	b := loadTiny(t)
	p := PBFA(b.QModel, b.Attack, DefaultConfig(3))
	for i := 1; i < len(p); i++ {
		if p[i].LossAfter+1e-9 < p[i-1].LossAfter {
			// Progressive search maximizes per-step loss; small decreases can
			// occur because each step is greedy, but a collapse indicates a bug.
			if p[i-1].LossAfter-p[i].LossAfter > 1.0 {
				t.Fatalf("loss collapsed at step %d: %v → %v", i, p[i-1].LossAfter, p[i].LossAfter)
			}
		}
	}
}

func TestPBFADeterministicPerSeed(t *testing.T) {
	b1 := loadTiny(t)
	b2 := loadTiny(t)
	p1 := PBFA(b1.QModel, b1.Attack, DefaultConfig(42))
	p2 := PBFA(b2.QModel, b2.Attack, DefaultConfig(42))
	if len(p1) != len(p2) {
		t.Fatalf("profile lengths differ: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i].Addr != p2[i].Addr {
			t.Fatalf("flip %d differs: %v vs %v", i, p1[i].Addr, p2[i].Addr)
		}
	}
}

func TestRandomAttackIsWeak(t *testing.T) {
	// The paper's motivation: random flips barely hurt accuracy.
	b := loadTiny(t)
	clean := model.Evaluate(b.Net, b.Test, 100)
	Random(b.QModel, 20, 7)
	attacked := model.Evaluate(b.Net, b.Test, 100)
	if clean-attacked > 0.25 {
		t.Fatalf("random attack too strong: clean %.3f → %.3f", clean, attacked)
	}
}

func TestRandomMSBFlipsOnlyMSB(t *testing.T) {
	b := loadTiny(t)
	p := RandomMSB(b.QModel, 50, 9)
	for _, f := range p {
		if f.Addr.Bit != quant.MSB {
			t.Fatalf("non-MSB flip in RandomMSB profile: %v", f.Addr)
		}
	}
}

func TestPairedEvasionOppositeDirections(t *testing.T) {
	b := loadTiny(t)
	base := PBFA(b.QModel, b.Attack, DefaultConfig(5))
	extra := PairedEvasion(b.QModel, base, 64, 5)
	if len(extra) == 0 {
		t.Fatal("no evasion flips added")
	}
	// Each extra flip must be an MSB flip in the opposite direction of its
	// base flip and land in the same contiguous group of 64.
	for i, e := range extra {
		if e.Addr.Bit != quant.MSB {
			t.Fatalf("evasion flip %d not on MSB", i)
		}
	}
	// Count directions across base+extra: they must mix 0→1 and 1→0.
	s := Classify([]Profile{base, extra})
	if s.MSB01 == 0 || s.MSB10 == 0 {
		t.Fatalf("paired evasion did not produce opposite directions: %+v", s)
	}
}

func TestMSB1ConfigRestrictsBits(t *testing.T) {
	b := loadTiny(t)
	p := PBFA(b.QModel, b.Attack, MSB1Config(8, 11))
	for _, f := range p {
		if f.Addr.Bit != 6 {
			t.Fatalf("MSB-1 attack flipped bit %d", f.Addr.Bit)
		}
	}
	if len(p) == 0 {
		t.Fatal("MSB-1 attack found no flips")
	}
}

func TestMSB1NeedsMoreFlipsThanMSB(t *testing.T) {
	// Section VIII: restricting to MSB-1 reduces per-flip damage.
	bm := loadTiny(t)
	clean := model.Evaluate(bm.Net, bm.Test, 100)
	cfg := DefaultConfig(21)
	cfg.NumFlips = 6
	PBFA(bm.QModel, bm.Attack, cfg)
	accMSB := model.Evaluate(bm.Net, bm.Test, 100)

	b1 := loadTiny(t)
	PBFA(b1.QModel, b1.Attack, MSB1Config(6, 21))
	accMSB1 := model.Evaluate(b1.Net, b1.Test, 100)

	if accMSB1 < accMSB-0.05 {
		t.Fatalf("MSB-1 attack (%.3f) should be weaker than MSB attack (%.3f), clean %.3f",
			accMSB1, accMSB, clean)
	}
}

func TestClassifyCountsDirections(t *testing.T) {
	p := Profile{
		{Addr: quant.BitAddress{Bit: 7}, Before: 5},   // MSB of 5 is 0 → 0→1
		{Addr: quant.BitAddress{Bit: 7}, Before: -5},  // MSB of −5 is 1 → 1→0
		{Addr: quant.BitAddress{Bit: 3}, Before: 100}, // other
	}
	s := Classify([]Profile{p})
	if s.MSB01 != 1 || s.MSB10 != 1 || s.Others != 1 {
		t.Fatalf("Classify = %+v", s)
	}
}

func TestClassifyRangesBuckets(t *testing.T) {
	p := Profile{
		{Before: -100}, {Before: -10}, {Before: 10}, {Before: 100},
	}
	s := ClassifyRanges([]Profile{p})
	if s.NegLarge != 1 || s.NegSmall != 1 || s.PosSmall != 1 || s.PosLarge != 1 {
		t.Fatalf("ClassifyRanges = %+v", s)
	}
}

func TestProfileAddresses(t *testing.T) {
	p := Profile{{Addr: quant.BitAddress{LayerIndex: 1, WeightIndex: 2, Bit: 3}}, {Addr: quant.BitAddress{LayerIndex: 4, WeightIndex: 5, Bit: 6}}}
	a := p.Addresses()
	if len(a) != 2 || a[1] != (quant.BitAddress{LayerIndex: 4, WeightIndex: 5, Bit: 6}) {
		t.Fatalf("Addresses = %v", a)
	}
}

func TestPBFAZeroFlips(t *testing.T) {
	b := loadTiny(t)
	cfg := DefaultConfig(1)
	cfg.NumFlips = 0
	if p := PBFA(b.QModel, b.Attack, cfg); p != nil {
		t.Fatalf("expected nil profile, got %v", p)
	}
}

// Guard: attack must leave float weights exactly on the quantization grid.
func TestAttackKeepsWeightsOnGrid(t *testing.T) {
	b := loadTiny(t)
	PBFA(b.QModel, b.Attack, DefaultConfig(13))
	for _, l := range b.QModel.Layers {
		for i, q := range l.Q {
			if l.Param.Value.Data[i] != float32(q)*l.Scale {
				t.Fatalf("layer %s weight %d off grid after attack", l.Name, i)
			}
		}
	}
}

var _ = nn.CrossEntropyLoss // keep import when test list shrinks

// BenchmarkPBFAFlip measures the cost of one progressive bit-search step
// on the ResNet-20 substitute (gradient pass + candidate ranking + trials).
func BenchmarkPBFAFlip(b *testing.B) {
	bundle := model.Load(model.ResNet20sSpec())
	cfg := DefaultConfig(1)
	cfg.NumFlips = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PBFA(bundle.QModel, bundle.Attack, cfg)
	}
}
