package exp

import (
	"fmt"
	"math/rand"
	"strings"

	"radar/internal/adversary"
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
	eval := c.EvalSet(ModelRN20)
	res.Clean = model.Load(specFor(ModelRN20)).CleanAccuracy

	// Reference MSB attack at 10 flips (first profile of the shared pool).
	b := model.Load(specFor(ModelRN20))
	adversary.Mount(adversary.Target{Model: b.QModel}, adversary.Volley{Weights: c.Profiles(ModelRN20)[0].Addresses()})
	res.AttackedMSB = model.Evaluate(b.Net, eval, 100)

	// Restricted attack, measured at 10 and 30 flips.
	b1 := model.Load(specFor(ModelRN20))
	cfg := attack.MSB1Config(budget, c.Opt.Seed)
	profile := attack.PBFA(b1.QModel, b1.Attack, cfg)
	b10 := model.Load(specFor(ModelRN20))
	p10 := profile
	if len(p10) > 10 {
		p10 = p10[:10]
	}
	adversary.Mount(adversary.Target{Model: b10.QModel}, adversary.Volley{Weights: p10.Addresses()})
	res.AttackedMSB1At10 = model.Evaluate(b10.Net, eval, 100)
	res.AttackedMSB1At30 = model.Evaluate(b1.Net, eval, 100)

	// Detection of the full restricted profile with 2- vs 3-bit signatures.
	for _, sigBits := range []int{2, 3} {
		bb := model.Load(specFor(ModelRN20))
		cfg := core.DefaultConfig(ScaledG(ModelRN20, 16))
		cfg.SigBits = sigBits
		prot := core.Protect(bb.QModel, cfg)
		adversary.Mount(adversary.Target{Model: bb.QModel}, adversary.Volley{Weights: profile.Addresses()})
		flagged := prot.Scan()
		detected := float64(prot.CountDetected(profile.Addresses(), flagged))
		if sigBits == 2 {
			res.Detected2Bit = detected
		} else {
			res.Detected3Bit = detected
		}
	}
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
// observer sees) → run-time scan → recovery.
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
	profile := c.Profiles(ModelRN20)[0]
	eval := c.EvalSet(ModelRN20)

	victim := model.Load(specFor(ModelRN20))
	res := RowhammerResult{Clean: model.Evaluate(victim.Net, eval, 100)}
	prot := core.Protect(victim.QModel, core.DefaultConfig(ScaledG(ModelRN20, 8)))
	addrs := profile.Addresses()
	adversary.Mount(adversary.Target{Model: victim.QModel}, adversary.Volley{Weights: addrs})
	res.Mounted = len(addrs)
	res.Attacked = model.Evaluate(victim.Net, eval, 100)

	flagged, _ := prot.DetectAndRecover()
	res.Detected = prot.CountDetected(addrs, flagged)
	res.Recovered = model.Evaluate(victim.Net, eval, 100)
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
