package core

import (
	"math/rand"
	"testing"

	"radar/internal/ecc"
	"radar/internal/quant"
)

func correctingConfig(g int) Config {
	cfg := DefaultConfig(g)
	cfg.Correct = true
	return cfg
}

// modelEquals reports whether the model's quantized bytes are bit-identical
// to the snapshot.
func modelEquals(m *quant.Model, snap [][]int8) bool {
	for li, l := range m.Layers {
		for i, v := range l.Q {
			if v != snap[li][i] {
				return false
			}
		}
	}
	return true
}

// TestCorrectRestoresSingleBitFlipsExactly: one MSB flip per hit group (a
// guaranteed-detected single-bit error) must come back bit-identical to
// the pre-attack image via the ECC path, with nothing zeroed.
func TestCorrectRestoresSingleBitFlipsExactly(t *testing.T) {
	b := loadTiny(t)
	p := Protect(b.QModel, correctingConfig(16))
	snap := b.QModel.Snapshot()
	rng := rand.New(rand.NewSource(7))
	var hit []quant.BitAddress
	for li, l := range b.QModel.Layers {
		seen := map[int]bool{}
		for k := 0; k < 3; k++ {
			i := rng.Intn(len(l.Q))
			g := p.Schemes[li].GroupOf(i, len(l.Q))
			if seen[g] { // one flip per group keeps the error single-bit
				continue
			}
			seen[g] = true
			hit = append(hit, quant.BitAddress{LayerIndex: li, WeightIndex: i, Bit: quant.MSB})
		}
	}
	for _, a := range hit {
		b.QModel.FlipBit(a)
	}
	flagged, zeroed := p.DetectAndRecover()
	if len(flagged) != len(hit) {
		t.Fatalf("flagged %d groups, want %d (MSB flips are always detected)", len(flagged), len(hit))
	}
	if zeroed != 0 {
		t.Fatalf("zeroed %d weights; single-bit groups must be corrected, not zeroed", zeroed)
	}
	if !modelEquals(b.QModel, snap) {
		t.Fatal("corrected model is not bit-identical to the pre-attack image")
	}
	st := p.Stats()
	if st.GroupsCorrected != int64(len(hit)) || st.GroupsZeroed != 0 {
		t.Fatalf("stats corrected=%d zeroed=%d, want %d/0", st.GroupsCorrected, st.GroupsZeroed, len(hit))
	}
	if again := p.Scan(); len(again) != 0 {
		t.Fatalf("rescan after correction flagged %d groups", len(again))
	}
}

// TestCorrectDoubleBitFallsBackToZeroing: two MSB flips in one group are
// beyond SEC-DED correction; every detected group must be zeroed — never a
// silent miscorrection into some third state.
func TestCorrectDoubleBitFallsBackToZeroing(t *testing.T) {
	b := loadTiny(t)
	p := Protect(b.QModel, correctingConfig(16))
	li := 1
	l := b.QModel.Layers[li]
	s := p.Schemes[li]
	// Pair MSB flips inside many groups; masking cancels ~half of the
	// pairs, so scan over enough groups that some are detected.
	pairs := 0
	for j := 0; j < s.NumGroups(len(l.Q)) && pairs < 16; j++ {
		m := s.Members(j, len(l.Q))
		if len(m) < 2 {
			continue
		}
		b.QModel.FlipBit(quant.BitAddress{LayerIndex: li, WeightIndex: m[0], Bit: quant.MSB})
		b.QModel.FlipBit(quant.BitAddress{LayerIndex: li, WeightIndex: m[1], Bit: quant.MSB})
		pairs++
	}
	flagged, _ := p.DetectAndRecover()
	if len(flagged) == 0 {
		t.Fatal("no pair detected; expected ~half of same-direction pairs to flip S_A")
	}
	for _, g := range flagged {
		s.VisitMembers(g.Group, len(l.Q), func(_, i int) {
			if l.Q[i] != 0 {
				t.Fatalf("group %v weight %d = %d after double-error recovery, want 0", g, i, l.Q[i])
			}
		})
	}
	st := p.Stats()
	if st.GroupsCorrected != 0 {
		t.Fatalf("corrected %d double-error groups; must fall back to zeroing", st.GroupsCorrected)
	}
	if st.GroupsZeroed != int64(len(flagged)) {
		t.Fatalf("stats zeroed=%d, want %d", st.GroupsZeroed, len(flagged))
	}
}

// TestCorrectRepairsCorruptedGoldenSignature: flipping stored golden bits
// (the signature-store attack) flags healthy groups; the class-0 ECC path
// must restore the golden value from the verified weights instead of
// destroying the group.
func TestCorrectRepairsCorruptedGoldenSignature(t *testing.T) {
	b := loadTiny(t)
	p := Protect(b.QModel, correctingConfig(16))
	snap := b.QModel.Snapshot()
	p.Golden[0][3] ^= 1
	p.Golden[2][0] ^= 2
	flagged, zeroed := p.DetectAndRecover()
	if len(flagged) != 2 {
		t.Fatalf("flagged %d groups, want 2", len(flagged))
	}
	if zeroed != 0 || !modelEquals(b.QModel, snap) {
		t.Fatal("signature-store repair must not touch the weights")
	}
	if st := p.Stats(); st.GroupsCorrected != 2 {
		t.Fatalf("corrected=%d, want 2", st.GroupsCorrected)
	}
	if again := p.Scan(); len(again) != 0 {
		t.Fatalf("goldens not restored: rescan flagged %d groups", len(again))
	}
}

// TestZeroingDestroysGroupsUnderSigstoreWithoutCorrection is the
// counterpoint: the paper's zeroing-only recovery launders a signature-
// store attack into real weight damage.
func TestZeroingDestroysGroupsUnderSigstoreWithoutCorrection(t *testing.T) {
	b := loadTiny(t)
	p := Protect(b.QModel, DefaultConfig(16))
	p.Golden[0][3] ^= 1
	_, zeroed := p.DetectAndRecover()
	if zeroed == 0 {
		t.Fatal("zeroing-only recovery should have destroyed the healthy group")
	}
}

// TestCorrectSurvivesRekey: rotating keys must keep correction enabled and
// its check words consistent with the fresh goldens.
func TestCorrectSurvivesRekey(t *testing.T) {
	b := loadTiny(t)
	p := Protect(b.QModel, correctingConfig(16))
	p.Rekey(0x5EED)
	if !p.Correcting() {
		t.Fatal("rekey disabled correction")
	}
	snap := b.QModel.Snapshot()
	a := quant.BitAddress{LayerIndex: 0, WeightIndex: 5, Bit: quant.MSB}
	b.QModel.FlipBit(a)
	if _, zeroed := p.DetectAndRecover(); zeroed != 0 {
		t.Fatalf("zeroed %d weights after rekey; want ECC correction", zeroed)
	}
	if !modelEquals(b.QModel, snap) {
		t.Fatal("post-rekey correction not bit-identical")
	}
}

// TestCorrectorPropertyAtMostTwoFlips is the corrector's core safety
// property, checked over randomized campaigns: with at most two flipped
// bits per group, every flagged group ends recovery either bit-identical
// to the original (ECC-corrected) or all-zero (fallback) — never any
// third, silently miscorrected state. (Three or more flips can alias both
// the SEC-DED code and the 2-bit signature, which no corrector at this
// redundancy can exclude; the adversaries in internal/adversary stay
// within the 2-flip regime per group by construction or get zeroed.)
func TestCorrectorPropertyAtMostTwoFlips(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		checkCorrectorProperty(t, int64(trial))
	}
}

// FuzzCorrectorAtMostTwoFlips fuzzes the same property over arbitrary
// seeds.
func FuzzCorrectorAtMostTwoFlips(f *testing.F) {
	for s := int64(0); s < 4; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkCorrectorProperty(t, seed)
	})
}

func checkCorrectorProperty(t *testing.T, seed int64) {
	t.Helper()
	b := loadTiny(t)
	cfg := correctingConfig(8)
	cfg.Seed = seed
	p := Protect(b.QModel, cfg)
	snap := b.QModel.Snapshot()
	rng := rand.New(rand.NewSource(seed ^ 0x5EED))

	// Flip 1 or 2 random bits in each of several random groups; track the
	// per-group flip count.
	perGroup := map[GroupID]int{}
	for k := 0; k < 12; k++ {
		li := rng.Intn(len(b.QModel.Layers))
		l := b.QModel.Layers[li]
		s := p.Schemes[li]
		j := rng.Intn(s.NumGroups(len(l.Q)))
		g := GroupID{Layer: li, Group: j}
		if perGroup[g] > 0 {
			continue
		}
		m := s.Members(j, len(l.Q))
		flips := 1 + rng.Intn(2)
		if flips > len(m) {
			flips = len(m)
		}
		for _, mi := range rng.Perm(len(m))[:flips] {
			b.QModel.FlipBit(quant.BitAddress{LayerIndex: li, WeightIndex: m[mi], Bit: rng.Intn(8)})
		}
		perGroup[g] = flips
	}

	flagged, _ := p.DetectAndRecover()
	for _, g := range flagged {
		l := b.QModel.Layers[g.Layer]
		identical, allZero := true, true
		p.Schemes[g.Layer].VisitMembers(g.Group, len(l.Q), func(_, i int) {
			if l.Q[i] != snap[g.Layer][i] {
				identical = false
			}
			if l.Q[i] != 0 {
				allZero = false
			}
		})
		if !identical && !allZero {
			t.Fatalf("seed %d: group %v (flips=%d) left in a third state: neither original nor zero",
				seed, g, perGroup[g])
		}
		if perGroup[g] == 1 && !identical {
			t.Fatalf("seed %d: single-bit group %v was zeroed, want exact correction", seed, g)
		}
	}
	if again := p.Scan(); len(again) != 0 {
		t.Fatalf("seed %d: rescan after recovery flagged %d groups", seed, len(again))
	}
}

// groupBits is group g's bit image as ecc.Hamming.Encode takes it: one
// byte per bit, members in position order, each weight LSB first.
func groupBits(p *Protector, g GroupID) []uint8 {
	var bits []uint8
	q := p.Model.Layers[g.Layer].Q
	p.Schemes[g.Layer].VisitMembers(g.Group, len(q), func(_, i int) {
		for b := 0; b < 8; b++ {
			bits = append(bits, uint8(q[i])>>b&1)
		}
	})
	return bits
}

// checkEncodeMatchesHamming fails t unless every stored check word of a
// correcting protector over layers of the given weights, at group size g,
// equals ecc.Hamming.Encode of the group's expanded bit image.
func checkEncodeMatchesHamming(t *testing.T, layers [][]int8, g int, interleave bool) {
	t.Helper()
	m := &quant.Model{}
	for _, q := range layers {
		m.Layers = append(m.Layers, &quant.Layer{Q: q, Scale: 1})
	}
	cfg := correctingConfig(g)
	cfg.Interleave = interleave
	p := Protect(m, cfg)
	defer p.Detach()
	for li, l := range m.Layers {
		for j := range p.Schemes[li].NumGroups(len(l.Q)) {
			bits := groupBits(p, GroupID{Layer: li, Group: j})
			if got, want := p.Check[li][j], ecc.NewHamming(len(bits)).Encode(bits); got != want {
				t.Fatalf("G=%d interleave=%v layer %d (%d weights) group %d: check word %#x, Hamming.Encode %#x", g, interleave, li, len(l.Q), j, got, want)
			}
		}
	}
}

// TestEncodeGroupMatchesHamming pins the set-bit encoder to the reference
// SEC-DED encoder on random weights, for every group size a deployment
// uses, both groupings, and layers that are shorter than a group or end in
// a partial one.
func TestEncodeGroupMatchesHamming(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, g := range []int{8, 16, 32, 64, 128, 512} {
		for _, interleave := range []bool{false, true} {
			var layers [][]int8
			for _, n := range []int{1, g - 1, g, 3*g + 5, 4099} {
				layers = append(layers, randWeights(rng, n))
			}
			checkEncodeMatchesHamming(t, layers, g, interleave)
		}
	}
}

// FuzzEncodeGroup holds the set-bit encoder to ecc.Hamming.Encode on
// arbitrary weight bytes, group sizes 1…600 and both groupings.
func FuzzEncodeGroup(f *testing.F) {
	f.Add([]byte{0x80, 0x7f, 0xff, 0, 1, 2, 3, 4, 5}, uint16(8), true)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint16(3), false)
	f.Add(make([]byte, 600), uint16(511), true)
	f.Fuzz(func(t *testing.T, weights []byte, g uint16, interleave bool) {
		if len(weights) == 0 {
			return
		}
		q := make([]int8, len(weights))
		for i, b := range weights {
			q[i] = int8(b)
		}
		checkEncodeMatchesHamming(t, [][]int8{q}, 1+int(g)%600, interleave)
	})
}
