package exp

import (
	"fmt"
	"math/rand"
	"strings"

	"radar/internal/attack"
	"radar/internal/core"
	"radar/internal/model"
	"radar/internal/quant"
)

// MissRateResult reproduces the §VI.B micro-experiment: a 512-weight layer
// under repeated rounds of 10 random MSB flips; a round is a miss when no
// group is flagged at all (the attack goes completely undetected).
type MissRateResult struct {
	// Rounds is the number of rounds run.
	Rounds int
	// Misses maps group size to complete-miss counts.
	Misses map[int]int
}

// MissRate runs the micro-experiment for G ∈ {16, 32}.
func MissRate(opt Options) MissRateResult {
	res := MissRateResult{Rounds: opt.MissRounds, Misses: map[int]int{}}
	rng := rand.New(rand.NewSource(opt.Seed))
	const layerSize = 512
	const flips = 10
	base := make([]int8, layerSize)
	for i := range base {
		base[i] = int8(rng.Intn(256) - 128)
	}
	for _, g := range []int{16, 32} {
		s := core.Scheme{G: g, Interleave: true, Offset: core.DefaultOffset,
			Key: uint16(rng.Intn(1 << 16)), SigBits: 2}
		golden := s.Signatures(base)
		misses := 0
		q := make([]int8, layerSize)
		for r := 0; r < opt.MissRounds; r++ {
			copy(q, base)
			for f := 0; f < flips; f++ {
				i := rng.Intn(layerSize)
				q[i] = quant.FlipBit(q[i], quant.MSB)
			}
			if len(core.Compare(golden, s.Signatures(q))) == 0 {
				misses++
			}
		}
		res.Misses[g] = misses
	}
	return res
}

// Render prints the miss-rate result.
func (r MissRateResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Detection miss rate (512-weight layer, 10 random MSB flips, %d rounds)\n", r.Rounds)
	for _, g := range []int{16, 32} {
		rate := float64(r.Misses[g]) / float64(r.Rounds)
		sb.WriteString(row(fmt.Sprintf("G=%d", g),
			fmt.Sprintf("misses=%d", r.Misses[g]),
			fmt.Sprintf("rate=%.2e", rate)) + "\n")
	}
	return sb.String()
}

// MSB1Result reproduces §VIII's "avoid flipping MSB" analysis: an attacker
// restricted to MSB-1 needs ~3× the flips for comparable damage, and the
// 3-bit signature restores detection.
type MSB1Result struct {
	// Clean and AttackedMSB are reference accuracies (10 MSB flips).
	Clean, AttackedMSB float64
	// AttackedMSB1At10 and AttackedMSB1At30 are accuracies under the
	// restricted attack at 10 and 30 flips.
	AttackedMSB1At10, AttackedMSB1At30 float64
	// Detected2Bit and Detected3Bit are detected flips (of 30) with 2-bit
	// and 3-bit signatures (G = 16, interleaved).
	Detected2Bit, Detected3Bit float64
	// TotalFlips is the restricted attack budget.
	TotalFlips int
}

// MSB1 runs the restricted attacker on the ResNet-20s model.
func MSB1(c *Context) MSB1Result {
	const budget = 30
	res := MSB1Result{TotalFlips: budget}
	res.Clean = model.Load(specFor(ModelRN20)).CleanAccuracy

	// Reference MSB attack at 10 flips (first profile of the shared pool).
	_, res.AttackedMSB = c.replay(ModelRN20, nil, c.Profiles(ModelRN20)[0].Addresses(), true)

	// Restricted attack, measured at 10 and 30 flips.
	b := model.Load(specFor(ModelRN20))
	profile := attack.PBFA(b.QModel, b.Attack, attack.MSB1Config(budget, c.Opt.Seed)).Addresses()
	_, res.AttackedMSB1At10 = c.replay(ModelRN20, nil, profile[:min(10, len(profile))], true)
	_, res.AttackedMSB1At30 = c.replay(ModelRN20, nil, profile, true)

	// Detection of the full restricted profile with 2- vs 3-bit signatures.
	detect := func(sigBits int) float64 {
		cfg := core.DefaultConfig(ScaledG(ModelRN20, 16))
		cfg.SigBits = sigBits
		n, _ := c.replay(ModelRN20, &cfg, profile, false)
		return float64(n)
	}
	res.Detected2Bit, res.Detected3Bit = detect(2), detect(3)
	return res
}

// Render prints the §VIII analysis.
func (r MSB1Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Section VIII: MSB-1 attacker and 3-bit signature (ResNet-20s, G=16)\n")
	sb.WriteString(row("clean", pct(r.Clean)) + "\n")
	sb.WriteString(row("10 MSB flips", pct(r.AttackedMSB)) + "\n")
	sb.WriteString(row("10 MSB-1 flips", pct(r.AttackedMSB1At10)) + "\n")
	sb.WriteString(row("30 MSB-1 flips", pct(r.AttackedMSB1At30)) + "\n")
	sb.WriteString(row("detected (2-bit sig)", fmt.Sprintf("%.0f/%d", r.Detected2Bit, r.TotalFlips)) + "\n")
	sb.WriteString(row("detected (3-bit sig)", fmt.Sprintf("%.0f/%d", r.Detected3Bit, r.TotalFlips)) + "\n")
	return sb.String()
}

// RowhammerResult is the §III end-to-end threat-model integration: PBFA
// profile → rowhammer flips (adversary.Mount: direct writes no write
// observer sees) → run-time scan → recovery. The same run is the paper's
// motivating comparison with periodic integrity checking (§I, citing
// DeepHammer; RenderRuntime): the flips land after a scan of the clean
// model has passed, so a periodic deployment infers at the attacked
// accuracy, while RADAR's embedded scan repairs each layer as its weights
// are fetched, which leaves them as the full scan and recovery do.
type RowhammerResult struct {
	// Mounted is how many profile bits were flipped.
	Mounted int
	// Detected is how many flips landed in flagged groups.
	Detected int
	// Clean, Attacked and Recovered are accuracies along the timeline.
	Clean, Attacked, Recovered float64
}

// Rowhammer runs the integration on the ResNet-20s model with G = 8.
func Rowhammer(c *Context) RowhammerResult {
	addrs := c.Profiles(ModelRN20)[0].Addresses()
	cfg := core.DefaultConfig(ScaledG(ModelRN20, 8))
	res := RowhammerResult{Mounted: len(addrs)}
	_, res.Clean = c.replay(ModelRN20, &cfg, nil, true) // the periodic check passes
	_, res.Attacked = c.replay(ModelRN20, nil, addrs, true)
	res.Detected, res.Recovered = c.replay(ModelRN20, &cfg, addrs, true)
	return res
}

// Render prints the integration summary.
func (r RowhammerResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Rowhammer integration (ResNet-20s, G=8, interleaved)\n")
	sb.WriteString(row("mounted flips", fmt.Sprint(r.Mounted)) + "\n")
	sb.WriteString(row("detected flips", fmt.Sprint(r.Detected)) + "\n")
	sb.WriteString(row("clean", pct(r.Clean)) + "\n")
	sb.WriteString(row("attacked", pct(r.Attacked)) + "\n")
	sb.WriteString(row("recovered", pct(r.Recovered)) + "\n")
	return sb.String()
}

// RenderRuntime prints the run as periodic versus embedded detection.
func (r RowhammerResult) RenderRuntime() string {
	var sb strings.Builder
	sb.WriteString("Run-time vs periodic detection (attack lands after the periodic scan)\n")
	sb.WriteString(row("clean", pct(r.Clean)) + "\n")
	sb.WriteString(row("periodic check", pct(r.Attacked), "0 flips caught") + "\n")
	sb.WriteString(row("embedded (RADAR)", pct(r.Recovered),
		fmt.Sprintf("%d/%d flips caught", r.Detected, r.Mounted)) + "\n")
	return sb.String()
}
