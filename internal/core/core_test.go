package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"radar/internal/model"
	"radar/internal/quant"
)

func randWeights(rng *rand.Rand, n int) []int8 {
	q := make([]int8, n)
	for i := range q {
		q[i] = int8(rng.Intn(256) - 128)
	}
	return q
}

func scheme(g int, interleave bool, key uint16) Scheme {
	return Scheme{G: g, Interleave: interleave, Offset: DefaultOffset, Key: key, SigBits: 2}
}

// TestGroupingIsPartition: every index belongs to exactly one group and
// Members/GroupOf agree — for both grouping modes over many geometries.
func TestGroupingIsPartition(t *testing.T) {
	f := func(seed int64, interleave bool) bool {
		rng := rand.New(rand.NewSource(seed))
		l := 1 + rng.Intn(500)
		g := 1 + rng.Intn(64)
		s := scheme(g, interleave, 0xBEEF)
		s.Offset = rng.Intn(7)
		n := s.NumGroups(l)
		seen := make([]int, l)
		for j := 0; j < n; j++ {
			for _, i := range s.Members(j, l) {
				if i < 0 || i >= l {
					return false
				}
				seen[i]++
				if s.GroupOf(i, l) != j {
					return false
				}
			}
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestGroupSizeBounds: no group exceeds G members, and Members lists them
// in position order — member t sits at keystream position t (contiguous:
// i mod G; interleaved: row i/N, one member per row), the order the
// masking keystream and the ECC bit image rely on.
func TestGroupSizeBounds(t *testing.T) {
	f := func(seed int64, interleave bool) bool {
		rng := rand.New(rand.NewSource(seed))
		l := 1 + rng.Intn(800)
		g := 1 + rng.Intn(64)
		s := scheme(g, interleave, 1)
		n := s.NumGroups(l)
		for j := 0; j < n; j++ {
			m := s.Members(j, l)
			if len(m) > g {
				return false
			}
			for pos, i := range m {
				if (!interleave && i%g != pos) || (interleave && i/n != pos) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestInterleaveScatters: members of an interleaved group are at least
// N−Offset apart in the original layout (the paper's "k locations apart").
func TestInterleaveScatters(t *testing.T) {
	s := scheme(16, true, 0xFFFF)
	l := 512
	n := s.NumGroups(l) // 32
	for j := 0; j < n; j++ {
		m := s.Members(j, l)
		for k := 1; k < len(m); k++ {
			gap := m[k] - m[k-1]
			if gap < n-s.Offset {
				t.Fatalf("group %d members %d,%d only %d apart (N=%d)", j, m[k-1], m[k], gap, n)
			}
		}
	}
}

func TestBinarizeFloorSemantics(t *testing.T) {
	s := scheme(8, false, 0xFFFF)
	cases := []struct {
		m  int32
		sa uint8
		sb uint8
	}{
		{0, 0, 0},
		{127, 0, 0},
		{128, 0, 1},
		{256, 1, 0},
		{384, 1, 1},
		{-1, 1, 1},   // ⌊−1/256⌋ = −1 (odd) ; ⌊−1/128⌋ = −1 (odd)
		{-128, 1, 1}, // ⌊−128/256⌋ = −1 ; ⌊−128/128⌋ = −1
		{-129, 1, 0}, // ⌊−129/128⌋ = −2 (even)
		{-256, 1, 0},
		{-257, 0, 1}, // ⌊−257/256⌋ = −2 ; ⌊−257/128⌋ = −3
	}
	for _, c := range cases {
		sig := s.Binarize(c.m)
		if sb := sig & 1; sb != c.sb {
			t.Errorf("M=%d: S_B=%d, want %d", c.m, sb, c.sb)
		}
		if sa := (sig >> 1) & 1; sa != c.sa {
			t.Errorf("M=%d: S_A=%d, want %d", c.m, sa, c.sa)
		}
	}
}

// TestSingleMSBFlipAlwaysDetected: the parity bit S_B catches every single
// MSB flip regardless of key, interleaving, group size, or weight values.
func TestSingleMSBFlipAlwaysDetected(t *testing.T) {
	f := func(seed int64, key uint16, interleave bool) bool {
		rng := rand.New(rand.NewSource(seed))
		l := 16 + rng.Intn(400)
		g := 4 << rng.Intn(5)
		s := scheme(g, interleave, key)
		q := randWeights(rng, l)
		golden := s.Signatures(q)
		i := rng.Intn(l)
		q[i] = quant.FlipBit(q[i], quant.MSB)
		fresh := s.Signatures(q)
		bad := Compare(golden, fresh)
		return len(bad) == 1 && bad[0] == s.GroupOf(i, l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestOddMSBFlipsDetected: any odd number of MSB flips in one group flips
// the group parity.
func TestOddMSBFlipsDetected(t *testing.T) {
	f := func(seed int64, key uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		s := scheme(32, false, key)
		q := randWeights(rng, 64)
		golden := s.Signatures(q)
		// Flip 1, 3, or 5 distinct MSBs inside group 0.
		k := []int{1, 3, 5}[rng.Intn(3)]
		perm := rng.Perm(32)[:k]
		for _, i := range perm {
			q[i] = quant.FlipBit(q[i], quant.MSB)
		}
		fresh := s.Signatures(q)
		for _, j := range Compare(golden, fresh) {
			if j == 0 {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSameDirectionDoubleFlipDetected: with an all-ones key (no masking),
// two MSB flips in the same direction change M by ±256 — S_B is blind but
// S_A toggles.
func TestSameDirectionDoubleFlipDetected(t *testing.T) {
	s := scheme(8, false, 0xFFFF)
	q := make([]int8, 8) // all zeros: MSB=0 everywhere
	golden := s.Signatures(q)
	q[1] = quant.FlipBit(q[1], quant.MSB) // 0→1
	q[5] = quant.FlipBit(q[5], quant.MSB) // 0→1, same direction
	fresh := s.Signatures(q)
	if len(Compare(golden, fresh)) != 1 {
		t.Fatal("same-direction double MSB flip must be detected by S_A")
	}
}

// TestOppositeDoubleFlipBlindWithoutMasking: the documented weakness —
// (0→1, 1→0) in one group cancels in the unmasked sum.
func TestOppositeDoubleFlipBlindWithoutMasking(t *testing.T) {
	s := scheme(8, false, 0xFFFF) // all-ones key: every weight enters as +q
	q := make([]int8, 8)
	q[1] = 5  // MSB 0
	q[5] = -5 // MSB 1
	golden := s.Signatures(q)
	q[1] = quant.FlipBit(q[1], quant.MSB) // 0→1: ΔQ = −128
	q[5] = quant.FlipBit(q[5], quant.MSB) // 1→0: ΔQ = +128
	fresh := s.Signatures(q)
	if len(Compare(golden, fresh)) != 0 {
		t.Fatal("opposite-direction flips should cancel without masking (this is the weakness masking addresses)")
	}
}

// TestMaskingBreaksCancellation: with a key whose bits differ at the two
// positions, the same opposite-direction pair no longer cancels.
func TestMaskingBreaksCancellation(t *testing.T) {
	// Key bit 1 = 1 (+), key bit 5 = 0 (−): positions 1 and 5 of group 0.
	key := uint16(0xFFFF) &^ (1 << 5)
	s := scheme(8, false, key)
	q := make([]int8, 8)
	q[1] = 5
	q[5] = -5
	golden := s.Signatures(q)
	q[1] = quant.FlipBit(q[1], quant.MSB)
	q[5] = quant.FlipBit(q[5], quant.MSB)
	fresh := s.Signatures(q)
	if len(Compare(golden, fresh)) == 0 {
		t.Fatal("masking with differing key bits must expose the paired flip")
	}
}

// TestMSB1FlipNeedsThreeBits: a single MSB-1 (bit 6) flip changes M by ±64:
// invisible to the 2-bit signature when it lands inside a 128-aligned
// half-interval, but always caught by the 3-bit signature's S_C.
func TestMSB1FlipNeedsThreeBits(t *testing.T) {
	f := func(seed int64, key uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		s3 := Scheme{G: 16, Offset: DefaultOffset, Key: key, SigBits: 3}
		q := randWeights(rng, 64)
		golden := s3.Signatures(q)
		i := rng.Intn(64)
		q[i] = quant.FlipBit(q[i], 6)
		fresh := s3.Signatures(q)
		bad := Compare(golden, fresh)
		return len(bad) == 1 && bad[0] == s3.GroupOf(i, 64)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTwoBitSignatureSometimesMissesMSB1(t *testing.T) {
	// Construct an explicit miss: M=0, flip bit 6 of a weight with bit6=0
	// (Δ=+64) → M=64 → S_A=S_B=0 unchanged.
	s := scheme(8, false, 0xFFFF)
	q := make([]int8, 8) // zeros
	golden := s.Signatures(q)
	q[0] = quant.FlipBit(q[0], 6) // 0 → 64
	fresh := s.Signatures(q)
	if len(Compare(golden, fresh)) != 0 {
		t.Fatal("expected the 2-bit signature to miss this MSB-1 flip")
	}
}

func TestValidatePanics(t *testing.T) {
	cases := []Scheme{
		{G: 0, SigBits: 2},
		{G: 8, SigBits: 4},
	}
	for _, s := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Validate(%+v) did not panic", s)
				}
			}()
			s.Validate(10)
		}()
	}
	// Protect validates every layer's scheme up front: a Config its schemes
	// reject never yields a protector.
	for _, cfg := range []Config{{G: 0, SigBits: 2}, {G: 8, SigBits: 4}, {G: -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Protect(%+v) did not panic", cfg)
				}
			}()
			Protect(syntheticModel(rand.New(rand.NewSource(1)), []int{64, 100}), cfg)
		}()
	}
}

func TestComparePanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Compare([]uint8{1}, []uint8{1, 2})
}

// --- Protector (model-level) tests ---

func loadTiny(t testing.TB) *model.Bundle {
	t.Helper()
	return model.Load(model.TinySpec())
}

func TestProtectScanCleanModel(t *testing.T) {
	b := loadTiny(t)
	for _, g := range []int{4, 16, 64} {
		for _, inter := range []bool{false, true} {
			cfg := DefaultConfig(g)
			if cfg.G != g || !cfg.Interleave || cfg.SigBits != 2 {
				t.Fatalf("DefaultConfig(%d) = %+v, want the paper's interleaved 2-bit scheme", g, cfg)
			}
			cfg.Interleave = inter
			p := Protect(b.QModel, cfg)
			if flagged := p.Scan(); len(flagged) != 0 {
				t.Fatalf("G=%d interleave=%v: clean model flagged %d groups", g, inter, len(flagged))
			}
		}
	}
}

func TestProtectorDetectsInjectedFlips(t *testing.T) {
	b := loadTiny(t)
	p := Protect(b.QModel, DefaultConfig(16))
	addr := quant.BitAddress{LayerIndex: 2, WeightIndex: 33, Bit: quant.MSB}
	b.QModel.FlipBit(addr)
	flagged := p.Scan()
	if len(flagged) != 1 {
		t.Fatalf("flagged %d groups, want 1", len(flagged))
	}
	if flagged[0] != p.GroupOf(addr) {
		t.Fatalf("flagged wrong group %v", flagged[0])
	}
	if p.CountDetected([]quant.BitAddress{addr}, flagged) != 1 {
		t.Fatal("CountDetected should report the flip")
	}
}

func TestRecoverZeroesFlaggedGroupAndRescansClean(t *testing.T) {
	b := loadTiny(t)
	p := Protect(b.QModel, DefaultConfig(16))
	addr := quant.BitAddress{LayerIndex: 1, WeightIndex: 7, Bit: quant.MSB}
	b.QModel.FlipBit(addr)
	flagged, zeroed := p.DetectAndRecover()
	if len(flagged) != 1 {
		t.Fatalf("flagged %d groups", len(flagged))
	}
	if zeroed == 0 {
		t.Fatal("no weights zeroed")
	}
	// All members of the flagged group must now be zero in Q and float.
	l := b.QModel.Layers[flagged[0].Layer]
	s := p.Schemes[flagged[0].Layer]
	for _, i := range s.Members(flagged[0].Group, len(l.Q)) {
		if l.Q[i] != 0 {
			t.Fatalf("member %d not zeroed", i)
		}
		if l.Param.Value.Data[i] != 0 {
			t.Fatalf("float weight %d not zeroed", i)
		}
	}
	// Post-recovery scan must be clean (golden refreshed).
	if again := p.Scan(); len(again) != 0 {
		t.Fatalf("post-recovery scan flagged %v", again)
	}
}

func TestRecoverOnlyTouchesFlaggedGroups(t *testing.T) {
	b := loadTiny(t)
	p := Protect(b.QModel, DefaultConfig(16))
	before := b.QModel.Snapshot()
	addr := quant.BitAddress{LayerIndex: 0, WeightIndex: 3, Bit: quant.MSB}
	b.QModel.FlipBit(addr)
	flagged, _ := p.DetectAndRecover()
	g := p.GroupOf(addr)
	if len(flagged) != 1 || flagged[0] != g {
		t.Fatalf("unexpected flags %v", flagged)
	}
	members := map[int]bool{}
	for _, i := range p.Schemes[g.Layer].Members(g.Group, len(b.QModel.Layers[g.Layer].Q)) {
		members[i] = true
	}
	for li, l := range b.QModel.Layers {
		for i := range l.Q {
			if li == g.Layer && members[i] {
				if l.Q[i] != 0 {
					t.Fatal("flagged group member not zeroed")
				}
				continue
			}
			if l.Q[i] != before[li][i] {
				t.Fatalf("untouched weight L%d[%d] changed", li, i)
			}
		}
	}
}

func TestProtectorStorageScalesWithG(t *testing.T) {
	b := loadTiny(t)
	s8 := Protect(b.QModel, DefaultConfig(8)).Storage()
	s64 := Protect(b.QModel, DefaultConfig(64)).Storage()
	if s8.SignatureBits <= s64.SignatureBits {
		t.Fatalf("smaller G must cost more signature bits: %d vs %d", s8.SignatureBits, s64.SignatureBits)
	}
}

// TestPaperStorageNumbers reproduces the paper's headline storage overheads
// from the full-size shape tables: ≈8.2 KB for ResNet-20 at G=8 and
// ≈5.6 KB for ResNet-18 at G=512 (2-bit signatures).
func TestPaperStorageNumbers(t *testing.T) {
	r20 := model.ResNet20CIFARShapes()
	var w20 []int
	for _, l := range r20.Layers {
		w20 = append(w20, l.Weights)
	}
	kb20 := StorageForWeights(w20, 8, 2, true).SignatureKB()
	if kb20 < 8.0 || kb20 > 8.5 {
		t.Fatalf("ResNet-20 G=8 signature storage = %.2f KB, paper ≈ 8.2 KB", kb20)
	}

	r18 := model.ResNet18ImageNetShapes()
	var w18 []int
	for _, l := range r18.Layers {
		w18 = append(w18, l.Weights)
	}
	kb18 := StorageForWeights(w18, 512, 2, true).SignatureKB()
	if kb18 < 5.4 || kb18 > 5.8 {
		t.Fatalf("ResNet-18 G=512 signature storage = %.2f KB, paper ≈ 5.6 KB", kb18)
	}
}

func TestStorageBreakdownTotals(t *testing.T) {
	b := StorageBreakdown{SignatureBits: 800, KeyBits: 160, OffsetBits: 40}
	if b.TotalBytes() != 125 {
		t.Fatalf("TotalBytes = %v", b.TotalBytes())
	}
	if b.SignatureKB() != 800.0/8/1024 {
		t.Fatalf("SignatureKB = %v", b.SignatureKB())
	}
}

func TestSchemeDeterministicSignatures(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := randWeights(rng, 300)
	s := scheme(32, true, 0x1234)
	a := s.Signatures(q)
	b := s.Signatures(q)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("signatures not deterministic")
		}
	}
}

// TestSignaturesMatchPerGroupComputation cross-checks the single-pass scan
// against the direct per-group Checksum/Signature path.
func TestSignaturesMatchPerGroupComputation(t *testing.T) {
	f := func(seed int64, key uint16, interleave bool) bool {
		rng := rand.New(rand.NewSource(seed))
		l := 8 + rng.Intn(300)
		s := scheme(1+rng.Intn(32), interleave, key)
		s.Offset = rng.Intn(5)
		q := randWeights(rng, l)
		fast := s.Signatures(q)
		for j := range fast {
			if fast[j] != s.Signature(q, j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
