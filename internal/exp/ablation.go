package exp

import (
	"fmt"
	"math/rand"
	"strings"

	"radar/internal/core"
	"radar/internal/memsim"
	"radar/internal/model"
	"radar/internal/quant"
)

// MaskingAblationResult isolates the contribution of the secret-key
// masking (README.md §Experiments): detection probability of an
// opposite-direction MSB flip pair inside one group, with and without
// masking. Without masking the pair cancels deterministically; with a
// random 16-bit key the pair survives only when the two positions share a
// key bit value (~50%).
type MaskingAblationResult struct {
	// Rounds is the number of random pairs tried.
	Rounds int
	// DetectedUnmasked and DetectedMasked count detections.
	DetectedUnmasked, DetectedMasked int
}

// MaskingAblation runs the micro-experiment on synthetic 256-weight layers
// with G = 16.
func MaskingAblation(opt Options) MaskingAblationResult {
	rng := rand.New(rand.NewSource(opt.Seed))
	res := MaskingAblationResult{Rounds: opt.MissRounds / 10}
	if res.Rounds < 1000 {
		res.Rounds = 1000
	}
	const layerSize = 256
	const g = 16
	for r := 0; r < res.Rounds; r++ {
		q := make([]int8, layerSize)
		for i := range q {
			q[i] = int8(rng.Intn(256) - 128)
		}
		// Pick a group and an opposite-direction MSB pair inside it.
		unmasked := core.Scheme{G: g, Offset: 0, Key: 0xFFFF, SigBits: 2}
		masked := core.Scheme{G: g, Offset: 0, Key: uint16(rng.Intn(1 << 16)), SigBits: 2}
		grp := rng.Intn(unmasked.NumGroups(layerSize))
		members := unmasked.Members(grp, layerSize)
		// Force opposite MSB values on two random members, then flip both.
		i, j := members[rng.Intn(len(members))], members[rng.Intn(len(members))]
		for j == i {
			j = members[rng.Intn(len(members))]
		}
		q[i] = int8(rng.Intn(128))      // MSB 0
		q[j] = int8(-1 - rng.Intn(128)) // MSB 1
		gu := unmasked.Signatures(q)
		gm := masked.Signatures(q)
		q[i] = quant.FlipBit(q[i], quant.MSB) // 0→1
		q[j] = quant.FlipBit(q[j], quant.MSB) // 1→0
		if len(core.Compare(gu, unmasked.Signatures(q))) > 0 {
			res.DetectedUnmasked++
		}
		if len(core.Compare(gm, masked.Signatures(q))) > 0 {
			res.DetectedMasked++
		}
	}
	return res
}

// Render prints the ablation.
func (r MaskingAblationResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Masking ablation: opposite-direction MSB pair in one group (%d rounds)\n", r.Rounds)
	sb.WriteString(row("unmasked checksum",
		fmt.Sprintf("detected %s", pct(float64(r.DetectedUnmasked)/float64(r.Rounds)))) + "\n")
	sb.WriteString(row("masked checksum",
		fmt.Sprintf("detected %s", pct(float64(r.DetectedMasked)/float64(r.Rounds)))) + "\n")
	return sb.String()
}

// BatchAmortizationResult reproduces the §VII.A remark: RADAR's relative
// overhead shrinks with batch size because weights are checked once per
// load and reused across the batch.
type BatchAmortizationResult struct {
	// Rows maps model table name to per-batch results.
	Rows map[string][]memsim.BatchResult
}

// BatchAmortization prices batches 1–16 on both full-size models.
func BatchAmortization() BatchAmortizationResult {
	cm := memsim.DefaultCostModel()
	res := BatchAmortizationResult{Rows: map[string][]memsim.BatchResult{}}
	for _, c := range deployments() {
		res.Rows[c.tab.Model] = cm.SimulateBatch(c.tab,
			memsim.RADARConfig{G: c.g, Interleave: true, SigBits: 2},
			[]int{1, 2, 4, 8, 16})
	}
	return res
}

// Render prints the amortization curves.
func (r BatchAmortizationResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Batch amortization of RADAR detection overhead (simulated)\n")
	for _, name := range []string{"resnet20-cifar", "resnet18-imagenet"} {
		cells := []string{name}
		for _, b := range r.Rows[name] {
			cells = append(cells, fmt.Sprintf("B=%d:%.2f%%", b.Batch, b.OverheadPct))
		}
		sb.WriteString(row(cells...) + "\n")
	}
	return sb.String()
}

// SigBitsAblationResult compares 2- vs 3-bit signatures on storage and
// MSB-1 detection — quantifying the §VIII trade-off.
type SigBitsAblationResult struct {
	// Storage2KB and Storage3KB are full-size ResNet-18 signature costs.
	Storage2KB, Storage3KB float64
	// Detect2 and Detect3 are MSB-1 single-flip detection rates over
	// random trials on a synthetic layer.
	Detect2, Detect3 float64
	// Rounds is the trial count.
	Rounds int
}

// SigBitsAblation measures both axes.
func SigBitsAblation(opt Options) SigBitsAblationResult {
	weights := layerWeights(model.ResNet18ImageNetShapes())
	res := SigBitsAblationResult{
		Storage2KB: core.StorageForWeights(weights, 512, 2, true).SignatureKB(),
		Storage3KB: core.StorageForWeights(weights, 512, 3, true).SignatureKB(),
		Rounds:     opt.MissRounds / 10,
	}
	if res.Rounds < 1000 {
		res.Rounds = 1000
	}
	rng := rand.New(rand.NewSource(opt.Seed + 7))
	const layerSize = 512
	det2, det3 := 0, 0
	for r := 0; r < res.Rounds; r++ {
		q := make([]int8, layerSize)
		for i := range q {
			q[i] = int8(rng.Intn(256) - 128)
		}
		key := uint16(rng.Intn(1 << 16))
		s2 := core.Scheme{G: 32, Interleave: true, Offset: 3, Key: key, SigBits: 2}
		s3 := core.Scheme{G: 32, Interleave: true, Offset: 3, Key: key, SigBits: 3}
		g2 := s2.Signatures(q)
		g3 := s3.Signatures(q)
		i := rng.Intn(layerSize)
		q[i] = quant.FlipBit(q[i], 6) // MSB-1
		if len(core.Compare(g2, s2.Signatures(q))) > 0 {
			det2++
		}
		if len(core.Compare(g3, s3.Signatures(q))) > 0 {
			det3++
		}
	}
	res.Detect2 = float64(det2) / float64(res.Rounds)
	res.Detect3 = float64(det3) / float64(res.Rounds)
	return res
}

// Render prints the trade-off.
func (r SigBitsAblationResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Signature-width ablation (ResNet-18 full-size storage; MSB-1 single-flip detection)\n")
	sb.WriteString(row("2-bit", fmt.Sprintf("%.2fKB", r.Storage2KB), "detect "+pct(r.Detect2)) + "\n")
	sb.WriteString(row("3-bit", fmt.Sprintf("%.2fKB", r.Storage3KB), "detect "+pct(r.Detect3)) + "\n")
	return sb.String()
}
