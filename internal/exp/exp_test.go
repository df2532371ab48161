package exp

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// sharedCtx caches one Quick-scale context (and its attack profiles) across
// all tests in this package; profiles are the expensive part.
var sharedCtx = NewContext(Quick())

// checkGolden compares a quick-scale render with testdata/quick/<id>.txt:
// what `radar-bench -exp <id> -scale quick` prints under its header. Off
// amd64 it compares the line count only, because arm64 fuses multiply-adds
// in the float path and an accuracy may move in its last digit there.
func checkGolden(t *testing.T, id, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "quick", id+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOARCH != "amd64" {
		if n, m := strings.Count(got, "\n"), strings.Count(string(want), "\n"); n != m {
			t.Errorf("%s render has %d lines, testdata/quick/%s.txt %d", id, n, id, m)
		}
		return
	}
	if got != string(want) {
		t.Errorf("%s render differs from testdata/quick/%s.txt\ngot:\n%swant:\n%s", id, id, got, want)
	}
}

func TestTableIMSBDominance(t *testing.T) {
	r := TableI(sharedCtx)
	for _, name := range []string{ModelRN20, ModelRN18} {
		s := r.Stats[name]
		total := s.MSB01 + s.MSB10 + s.Others
		if total == 0 {
			t.Fatalf("%s: no flips classified", name)
		}
		// Paper Table I: MSB flips dominate overwhelmingly.
		if frac := float64(s.MSB01+s.MSB10) / float64(total); frac < 0.7 {
			t.Errorf("%s: MSB fraction %.2f < 0.7", name, frac)
		}
	}
	checkGolden(t, "table1", r.Render())
}

func TestTableIIBucketsSumToFlips(t *testing.T) {
	r := TableII(sharedCtx)
	ri := TableI(sharedCtx)
	for _, name := range []string{ModelRN20, ModelRN18} {
		s := r.Stats[name]
		sum := s.NegLarge + s.NegSmall + s.PosSmall + s.PosLarge
		if sum != ri.FlipsPerModel[name] {
			t.Errorf("%s: range buckets %d != flips %d", name, sum, ri.FlipsPerModel[name])
		}
	}
	checkGolden(t, "table2", r.Render())
}

func TestFigure2MonotoneTrend(t *testing.T) {
	r := Figure2(sharedCtx)
	for _, name := range []string{ModelRN20, ModelRN18} {
		gs := r.Gs[name]
		first := r.Proportion[name][gs[0]]
		last := r.Proportion[name][gs[len(gs)-1]]
		// The multi-bit proportion must not shrink as groups grow.
		if last < first {
			t.Errorf("%s: proportion decreased from %.2f (G=%d) to %.2f (G=%d)",
				name, first, gs[0], last, gs[len(gs)-1])
		}
	}
	checkGolden(t, "fig2", r.Render())
}

func TestFigure4DetectionQuality(t *testing.T) {
	r := Figure4(sharedCtx)
	// Paper Fig 4: small G detects ≈ all flips; interleaving keeps
	// detection high at large G.
	// A minority of PBFA flips land on bit 6 (our search is slightly less
	// MSB-exclusive than the paper's Table I), and a bit-6 flip evades the
	// 2-bit signature ~half the time, so the bound allows for that.
	d20small := r.Detected[ModelRN20][Figure2Groups(ModelRN20)[0]]
	if d20small.Plain < float64(r.NumFlips)*0.6 {
		t.Errorf("ResNet-20s G=4 plain detection %.1f too low", d20small.Plain)
	}
	for _, name := range []string{ModelRN20, ModelRN18} {
		gs := r.Gs[name]
		big := r.Detected[name][gs[len(gs)-1]]
		if big.Interleaved+0.75 < big.Plain {
			t.Errorf("%s: interleaving should not hurt detection at large G: %.2f vs %.2f",
				name, big.Interleaved, big.Plain)
		}
		if big.Interleaved < float64(r.NumFlips)*0.7 {
			t.Errorf("%s: interleaved detection %.1f/%d too low at G=%d",
				name, big.Interleaved, r.NumFlips, gs[len(gs)-1])
		}
	}
	checkGolden(t, "fig4", r.Render())
}

func TestTableIIIRecoveryShape(t *testing.T) {
	r := TableIII(sharedCtx)
	for _, name := range []string{ModelRN20, ModelRN18} {
		clean := r.Clean[name]
		attacked := r.Attacked[name][10]
		if attacked >= clean-0.1 {
			t.Errorf("%s: attack too weak for recovery experiment: clean %.2f attacked %.2f",
				name, clean, attacked)
		}
		for _, g := range r.Gs[name] {
			cell := r.Cells[name][10][g]
			// Recovery must restore a large part of the damage (paper: from
			// 18% back to 60-80%+ of clean).
			if cell.Interleaved < attacked {
				t.Errorf("%s G=%d: recovered %.2f worse than attacked %.2f",
					name, g, cell.Interleaved, attacked)
			}
			if cell.Interleaved < clean-0.35 {
				t.Errorf("%s G=%d: recovered %.2f too far below clean %.2f",
					name, g, cell.Interleaved, clean)
			}
		}
	}
	checkGolden(t, "table3", r.Render())
	checkGolden(t, "fig5", Figure5(r).Render())
}

func TestTableIVPaperShape(t *testing.T) {
	r := TableIV()
	r20 := r.Rows["resnet20-cifar"]
	r18 := r.Rows["resnet18-imagenet"]
	// Baselines near the gem5 numbers.
	if r20.BaselineSec < 0.055 || r20.BaselineSec > 0.080 {
		t.Errorf("ResNet-20 baseline %.4f, paper 0.0663", r20.BaselineSec)
	}
	if r18.BaselineSec < 2.7 || r18.BaselineSec > 3.8 {
		t.Errorf("ResNet-18 baseline %.3f, paper 3.268", r18.BaselineSec)
	}
	// Overheads in the paper's bands: RN20 a few percent, RN18 ≤ ~3%.
	if r20.InterleavedPct < 1 || r20.InterleavedPct > 10 {
		t.Errorf("ResNet-20 interleaved overhead %.2f%%, paper 5.27%%", r20.InterleavedPct)
	}
	if r18.InterleavedPct > 4 {
		t.Errorf("ResNet-18 interleaved overhead %.2f%%, paper 1.83%%", r18.InterleavedPct)
	}
	if r18.PlainPct > r18.InterleavedPct {
		t.Error("plain must be cheaper than interleaved")
	}
	checkGolden(t, "table4", r.Render())
}

func TestTableVCRCLosesOnBothAxes(t *testing.T) {
	r := TableV()
	pairs := [][2]string{
		{"CRC-7/resnet20-cifar", "RADAR/resnet20-cifar"},
		{"CRC-13/resnet18-imagenet", "RADAR/resnet18-imagenet"},
		{"CRC-10/resnet18-imagenet", "RADAR/resnet18-imagenet"},
	}
	for _, pr := range pairs {
		crc, radar := r.Rows[pr[0]], r.Rows[pr[1]]
		if crc.DeltaSec <= radar.DeltaSec {
			t.Errorf("%s Δ=%.4f should exceed %s Δ=%.4f", pr[0], crc.DeltaSec, pr[1], radar.DeltaSec)
		}
		if crc.StorageKB <= radar.StorageKB {
			t.Errorf("%s storage %.1fKB should exceed %s %.1fKB",
				pr[0], crc.StorageKB, pr[1], radar.StorageKB)
		}
	}
	// Paper storage anchors: RADAR 5.6 KB and CRC-13 36.4 KB on ResNet-18.
	if s := r.Rows["RADAR/resnet18-imagenet"].StorageKB; s < 5.4 || s > 5.8 {
		t.Errorf("RADAR RN18 storage %.2fKB, paper 5.6KB", s)
	}
	if s := r.Rows["CRC-13/resnet18-imagenet"].StorageKB; s < 34 || s > 40 {
		t.Errorf("CRC-13 RN18 storage %.2fKB, paper 36.4KB", s)
	}
	checkGolden(t, "table5", r.Render())
}

func TestMissRateLowAndOrdered(t *testing.T) {
	r := MissRate(Quick())
	for _, g := range []int{16, 32} {
		rate := float64(r.Misses[g]) / float64(r.Rounds)
		// Paper: 10⁻⁵ (G=32) and 10⁻⁶ (G=16) on this toy layer. At 3×10⁴
		// rounds we can only bound the rate loosely; the golden pins the
		// exact miss counts.
		if rate > 1e-3 {
			t.Errorf("G=%d miss rate %.2e too high", g, rate)
		}
	}
	// Smaller groups must not miss more often than larger ones.
	if r.Misses[16] > r.Misses[32]+2 {
		t.Errorf("G=16 misses (%d) should be ≤ G=32 misses (%d)", r.Misses[16], r.Misses[32])
	}
	checkGolden(t, "missrate", r.Render())
}

func TestFigure7InterleaveDefendsEvasion(t *testing.T) {
	r := Figure7(sharedCtx)
	// Paper Fig 7: without interleave the paired attack suppresses
	// detection; interleaving restores it. Compare at small-to-mid G where
	// evasion pairs actually land in one contiguous group.
	worse, better := 0, 0
	for _, g := range r.Gs {
		d := r.Detected[g]
		if d.Interleaved > d.Plain+0.25 {
			better++
		}
		if d.Interleaved+0.25 < d.Plain {
			worse++
		}
	}
	if better == 0 {
		t.Error("interleaving never improved detection under paired evasion")
	}
	if worse > better {
		t.Errorf("interleaving hurt detection more often (%d) than it helped (%d)", worse, better)
	}
	checkGolden(t, "fig7", r.Render())
}

func TestMSB1RestrictedAttackerWeaker(t *testing.T) {
	r := MSB1(sharedCtx)
	// 10 MSB-1 flips must hurt less than 10 MSB flips (paper: ~3× more
	// flips needed), and 30 MSB-1 flips must hurt more than 10.
	if r.AttackedMSB1At10 < r.AttackedMSB-0.05 {
		t.Errorf("10 MSB-1 flips (%.2f) should be weaker than 10 MSB flips (%.2f)",
			r.AttackedMSB1At10, r.AttackedMSB)
	}
	if r.AttackedMSB1At30 > r.AttackedMSB1At10+0.02 {
		t.Errorf("30 MSB-1 flips (%.2f) should hurt more than 10 (%.2f)",
			r.AttackedMSB1At30, r.AttackedMSB1At10)
	}
	// The 3-bit signature must detect the restricted attack better than the
	// 2-bit signature.
	if r.Detected3Bit < r.Detected2Bit {
		t.Errorf("3-bit signature (%.0f) should detect at least as much as 2-bit (%.0f)",
			r.Detected3Bit, r.Detected2Bit)
	}
	if r.Detected3Bit < float64(r.TotalFlips)*0.8 {
		t.Errorf("3-bit signature detected only %.0f of %d MSB-1 flips",
			r.Detected3Bit, r.TotalFlips)
	}
	checkGolden(t, "msb1", r.Render())
}

// TestRowhammerIntegration also reads the run as §I's periodic-versus-
// embedded comparison: the periodic check passed on the clean model (Rowhammer
// panics otherwise), then the flips land before inference.
func TestRowhammerIntegration(t *testing.T) {
	r := Rowhammer(sharedCtx)
	if r.Mounted != sharedCtx.Opt.NumFlips {
		t.Fatalf("mounted %d of %d flips", r.Mounted, sharedCtx.Opt.NumFlips)
	}
	if r.Detected < r.Mounted-2 {
		t.Errorf("detected %d of %d mounted flips", r.Detected, r.Mounted)
	}
	if r.Attacked >= r.Clean-0.05 {
		t.Errorf("attack ineffective: clean %.2f attacked %.2f", r.Clean, r.Attacked)
	}
	if r.Recovered <= r.Attacked {
		t.Errorf("embedded detection and recovery (%.2f) must beat the periodic check (%.2f)",
			r.Recovered, r.Attacked)
	}
	if r.Recovered < r.Clean-0.3 {
		t.Errorf("recovered %.2f too far below clean %.2f", r.Recovered, r.Clean)
	}
	checkGolden(t, "rowhammer", r.Render())
	checkGolden(t, "runtime", r.RenderRuntime())
}

// TestRowSeparatesCells: a cell as wide as its 14-column slot, or wider
// (Tables IV/V print "resnet18-imagenet"), is still followed by a space.
func TestRowSeparatesCells(t *testing.T) {
	for _, tc := range []struct {
		cells []string
		want  string
	}{
		{[]string{"G=8", "x"}, "G=8" + strings.Repeat(" ", 11) + "x"},
		{[]string{"fourteen-chars", "x"}, "fourteen-chars x"},
		{[]string{"resnet18-imagenet", "3.0839s", ""}, "resnet18-imagenet 3.0839s"},
	} {
		if got := row(tc.cells...); got != tc.want {
			t.Errorf("row(%q) = %q, want %q", tc.cells, got, tc.want)
		}
	}
}

func TestRendersNonEmpty(t *testing.T) {
	ctx := sharedCtx
	outs := []string{
		TableI(ctx).Render(),
		TableII(ctx).Render(),
		Figure2(ctx).Render(),
		TableIV().Render(),
		TableV().Render(),
	}
	for i, o := range outs {
		if len(strings.TrimSpace(o)) == 0 {
			t.Errorf("render %d empty", i)
		}
		if !strings.Contains(o, "\n") {
			t.Errorf("render %d single line", i)
		}
	}
}
