package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"radar/internal/model"
	"radar/internal/quant"
)

// checkVerifyAgainstRef holds the inline verify to a reference on one
// (scheme, layer): a fresh layer verifies, and after each of a few random
// bit flips verify says "clean" exactly when ref still reproduces the
// golden signatures.
func checkVerifyAgainstRef(t *testing.T, rng *rand.Rand, s Scheme, q []int8, ref func(Scheme, []int8) []uint8, what string) {
	t.Helper()
	golden := ref(s, q)
	pl := s.compile(len(q))
	if !pl.verify(q, golden) {
		t.Fatalf("%s: clean layer failed verify", what)
	}
	for trial := 0; trial < 8; trial++ {
		i, bit := rng.Intn(len(q)), rng.Intn(8)
		if trial == 0 {
			bit = quant.MSB // always changes S_B: at least one sure mismatch
		}
		q[i] = quant.FlipBit(q[i], bit)
		want := slices.Equal(ref(s, q), golden)
		if got := pl.verify(q, golden); got != want {
			t.Fatalf("%s: flip q[%d].b%d: verify=%v, reference says clean=%v", what, i, bit, got, want)
		}
		q[i] = quant.FlipBit(q[i], bit)
	}
	// A corrupted golden signature (the sigstore attack) must fail too.
	j := rng.Intn(len(golden))
	golden[j] ^= 1
	if pl.verify(q, golden) {
		t.Fatalf("%s: flipped golden signature %d passed verify", what, j)
	}
}

// rangeRef is SignaturesRangeRef over the whole layer, as a reference for
// checkVerifyAgainstRef where the per-group refSignatures would be too slow.
func rangeRef(s Scheme, q []int8) []uint8 {
	return s.SignaturesRangeRef(q, 0, s.NumGroups(len(q)))
}

// TestVerifyMatchesReference is the differential pin of the fetch-path
// verify: the SWAR geometries plus the served layer shapes at G = 8 and a
// multi-chunk G = 512 layer against the per-group Checksum reference, both
// signature widths, interleave offsets 0–11 (0 and multiples of 8 put
// every row's wrap in one word); then every layer shape of the served zoo
// models and of full-size ResNet-18 and randomized geometries against
// SignaturesRangeRef.
func TestVerifyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	geos := append(swarGeometries(), []struct{ g, l int }{{8, 9216}, {8, 36864}, {512, 294912}, {3, 5000}, {130, 70000}}...)
	for _, geo := range geos {
		q := randWeights(rng, geo.l)
		for _, sigBits := range []int{2, 3} {
			for off := -1; off < 12; off++ { // −1: contiguous, where the offset is unused
				if geo.l > 100000 && off > 0 && off%4 != 0 {
					continue // the reference costs 0.1 s per scheme here under -race
				}
				s := Scheme{G: geo.g, Interleave: off >= 0, Offset: off, Key: uint16(rng.Intn(1 << KeyBits)), SigBits: sigBits}
				checkVerifyAgainstRef(t, rng, s, q, refSignatures, fmt.Sprintf("G=%d l=%d sigBits=%d offset=%d", geo.g, geo.l, sigBits, off))
			}
		}
	}
	scheme := func(g int, interleave bool) Scheme {
		return Scheme{
			G:          g,
			Interleave: interleave,
			Offset:     DefaultOffset + rng.Intn(8),
			Key:        uint16(rng.Intn(1 << KeyBits)),
			SigBits:    2 + rng.Intn(2),
		}
	}
	models := map[string]*quant.Model{
		"tiny":      model.Load(model.TinySpec()).QModel,
		"resnet20s": model.Load(model.ResNet20sSpec()).QModel,
		"resnet18":  model.SyntheticQuant(model.ResNet18ImageNetShapes()),
	}
	for name, m := range models {
		for _, g := range []int{8, 512} {
			for _, interleave := range []bool{false, true} {
				for _, l := range m.Layers {
					checkVerifyAgainstRef(t, rng, scheme(g, interleave), l.Q, rangeRef, name+"/"+l.Name)
				}
			}
		}
	}
	for trial := 0; trial < 400; trial++ {
		l := 1 + rng.Intn(6000)
		if trial%8 == 0 {
			l = 1 + rng.Intn(70000) // several kernel chunks, bit-15 clears
		}
		s := scheme(1+rng.Intn(600), trial%2 == 0)
		checkVerifyAgainstRef(t, rng, s, randWeights(rng, l), rangeRef, "random")
	}
}

// TestFetchLayerAfterRekey: Rekey rebuilds the per-layer plans with the
// schemes, so the fetch path neither trusts stale masks (a clean model
// must verify under the new keys) nor misses a flip afterwards.
func TestFetchLayerAfterRekey(t *testing.T) {
	m := model.Load(model.TinySpec()).QModel
	p := Protect(m, DefaultConfig(8))
	defer p.Detach()
	g := NewLayerGuard(len(m.Layers))
	p.Coordinate(g)
	cfg := DefaultConfig(16)
	cfg.Seed = 99
	cfg.SigBits = 3
	p.Rekey(cfg)
	for li := range m.Layers {
		if p.plans[li].s != p.Schemes[li] {
			t.Fatalf("layer %d: plan compiled for %+v, scheme is %+v", li, p.plans[li].s, p.Schemes[li])
		}
		flagged, _, exclusive := p.FetchLayer(li, time.Now())
		if flagged != 0 || exclusive {
			t.Fatalf("layer %d: clean model flagged %d groups after rekey", li, flagged)
		}
		g.RUnlockLayer(li)
	}
	l := m.Layers[1]
	l.Q[5] = quant.FlipBit(l.Q[5], quant.MSB) // physical flip: no observer fires
	flagged, zeroed, exclusive := p.FetchLayer(1, time.Now())
	if flagged != 1 || zeroed == 0 || !exclusive {
		t.Fatalf("flip after rekey: flagged=%d zeroed=%d exclusive=%v, want one group repaired under the write lock", flagged, zeroed, exclusive)
	}
	g.UnlockLayer(1)
	if st := p.Stats(); st.GroupsRecovered != 1 {
		t.Fatalf("GroupsRecovered = %d, want 1", st.GroupsRecovered)
	}
	if flagged, _, _ := p.FetchLayer(1, time.Now()); flagged != 0 {
		t.Fatal("repaired layer flagged again")
	}
	g.RUnlockLayer(1)
	// Every fetch counts as one scan of its layer, the repaired one too.
	wantScans, wantBytes := int64(len(m.Layers)+2), int64(2*len(l.Q))
	for _, ml := range m.Layers {
		wantBytes += int64(len(ml.Q))
	}
	if st := p.Stats(); st.Scans != wantScans || st.BytesScanned != wantBytes {
		t.Fatalf("Scans=%d BytesScanned=%d after %d fetches, want %d and %d", st.Scans, st.BytesScanned, wantScans, wantScans, wantBytes)
	}
}

// TestFetchLayerZeroAlloc: a clean verified fetch allocates nothing, on
// either grouping, whatever the layer size.
func TestFetchLayerZeroAlloc(t *testing.T) {
	m := model.Load(model.ResNet20sSpec()).QModel
	for _, interleave := range []bool{false, true} {
		cfg := DefaultConfig(8)
		cfg.Interleave = interleave
		p := Protect(m, cfg)
		g := NewLayerGuard(len(m.Layers))
		p.Coordinate(g)
		at := time.Now()
		allocs := testing.AllocsPerRun(20, func() {
			for li := range m.Layers {
				if _, _, exclusive := p.FetchLayer(li, at); exclusive {
					t.Fatal("clean layer escalated")
				}
				g.RUnlockLayer(li)
			}
		})
		p.Detach()
		if allocs != 0 {
			t.Fatalf("interleave=%v: clean FetchLayer pass allocated %.0f times, want 0", interleave, allocs)
		}
	}
}

// BenchmarkFetchLayer prices one clean verified-fetch pass over every
// layer of a served model — the per-forward cost the fused fetch adds, in
// MB/s of weights: tiny at the serving default (G = 8, interleaved), then
// resnet20s across group size and grouping, the measured shape of the
// paper's Table IV.
func BenchmarkFetchLayer(b *testing.B) {
	run := func(name string, m *quant.Model, cfg Config) {
		p := Protect(m, cfg)
		defer p.Detach()
		g := NewLayerGuard(len(m.Layers))
		p.Coordinate(g)
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(m.TotalWeights()))
			b.ReportAllocs()
			at := time.Now()
			for b.Loop() {
				for li := range m.Layers {
					p.FetchLayer(li, at)
					g.RUnlockLayer(li)
				}
			}
		})
	}
	run("tiny", model.Load(model.TinySpec()).QModel, DefaultConfig(8))
	m := model.Load(model.ResNet20sSpec()).QModel
	for _, interleave := range []bool{true, false} {
		for _, g := range []int{8, 32, 128, 512} {
			cfg := DefaultConfig(g)
			cfg.Interleave = interleave
			run(fmt.Sprintf("resnet20s/interleave=%v/G=%d", interleave, g), m, cfg)
		}
	}
}
