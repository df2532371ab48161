package exp

import "testing"

func TestMaskingAblationShowsMaskingValue(t *testing.T) {
	r := MaskingAblation(Quick())
	// Without masking an opposite-direction pair cancels deterministically.
	if r.DetectedUnmasked != 0 {
		t.Fatalf("unmasked checksum detected %d of %d cancelling pairs (expected 0)",
			r.DetectedUnmasked, r.Rounds)
	}
	// With a random key the pair survives when the two key bits differ
	// (≈50% of pairs). Allow wide slack around 0.5.
	rate := float64(r.DetectedMasked) / float64(r.Rounds)
	if rate < 0.3 || rate > 0.7 {
		t.Fatalf("masked detection rate %.3f outside [0.3, 0.7]", rate)
	}
	checkGolden(t, "ablation-masking", r.Render())
}

func TestBatchAmortizationMonotone(t *testing.T) {
	r := BatchAmortization()
	for name, rows := range r.Rows {
		if len(rows) < 2 {
			t.Fatalf("%s: too few batch points", name)
		}
		for i := 1; i < len(rows); i++ {
			if rows[i].OverheadPct >= rows[i-1].OverheadPct {
				t.Errorf("%s: overhead not decreasing with batch: B=%d %.3f%% vs B=%d %.3f%%",
					name, rows[i].Batch, rows[i].OverheadPct, rows[i-1].Batch, rows[i-1].OverheadPct)
			}
		}
		// Detection time itself is batch-independent.
		if rows[0].DetectionSec != rows[len(rows)-1].DetectionSec {
			t.Errorf("%s: detection time should not scale with batch", name)
		}
	}
	checkGolden(t, "ablation-batch", r.Render())
}

func TestSigBitsAblationTradeoff(t *testing.T) {
	r := SigBitsAblation(Quick())
	// 3-bit signatures cost exactly 1.5× the 2-bit storage.
	ratio := r.Storage3KB / r.Storage2KB
	if ratio < 1.49 || ratio > 1.51 {
		t.Fatalf("storage ratio %.3f, want 1.5", ratio)
	}
	// 3-bit must catch every MSB-1 single flip; 2-bit roughly half.
	if r.Detect3 < 0.999 {
		t.Fatalf("3-bit MSB-1 detection %.4f, want ~1.0", r.Detect3)
	}
	if r.Detect2 < 0.3 || r.Detect2 > 0.7 {
		t.Fatalf("2-bit MSB-1 detection %.3f outside [0.3, 0.7]", r.Detect2)
	}
	checkGolden(t, "ablation-sigbits", r.Render())
}
