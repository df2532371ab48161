package exp

import (
	"fmt"
	"strings"

	"radar/internal/adversary"
	"radar/internal/core"
	"radar/internal/model"
)

// RuntimeDetectionResult reproduces the paper's motivating comparison with
// periodic integrity checking (§I, citing DeepHammer): a run-time attacker
// flips bits *between* a periodic scan and the moment the corrupted layer
// is consumed. A periodic scheme that validated the model before the
// inference began computes on corrupted weights; RADAR's embedded per-layer
// scan (detection rides the weight fetch) repairs each layer immediately
// before use.
type RuntimeDetectionResult struct {
	// Clean is the reference accuracy.
	Clean float64
	// PeriodicAccuracy is the inference accuracy when the scan ran only
	// before the attack landed.
	PeriodicAccuracy float64
	// EmbeddedAccuracy is the accuracy with the per-layer embedded scan.
	EmbeddedAccuracy float64
	// EmbeddedDetected counts flips caught by the embedded scan.
	EmbeddedDetected int
	// Flips is the attack size.
	Flips int
}

// RuntimeDetection mounts a PBFA profile as rowhammer flips *after* a full
// periodic scan has passed, then compares the two deployment styles.
func RuntimeDetection(c *Context) RuntimeDetectionResult {
	profile := c.Profiles(ModelRN20)[0]
	eval := c.EvalSet(ModelRN20)
	res := RuntimeDetectionResult{Flips: len(profile)}

	// --- Periodic deployment: scan completes, then the attack lands, then
	// inference runs on whatever is in DRAM.
	periodic := model.Load(specFor(ModelRN20))
	res.Clean = model.Evaluate(periodic.Net, eval, 100)
	prot := core.Protect(periodic.QModel, core.DefaultConfig(ScaledG(ModelRN20, 8)))
	if flagged := prot.Scan(); len(flagged) != 0 { // the periodic check passes…
		panic("exp: clean model flagged")
	}
	// …and the attacker strikes after it.
	adversary.Mount(adversary.Target{Model: periodic.QModel}, adversary.Volley{Weights: profile.Addresses()})
	res.PeriodicAccuracy = model.Evaluate(periodic.Net, eval, 100)

	// --- Embedded deployment: same timeline, but each layer is scanned and
	// repaired at fetch time, before its weights are consumed.
	embedded := model.Load(specFor(ModelRN20))
	prot2 := core.Protect(embedded.QModel, core.DefaultConfig(ScaledG(ModelRN20, 8)))
	adversary.Mount(adversary.Target{Model: embedded.QModel}, adversary.Volley{Weights: profile.Addresses()})
	detected := 0
	for li := range embedded.QModel.Layers {
		flagged := prot2.ScanLayer(li)
		detected += prot2.CountDetected(profile.Addresses(), flagged)
		prot2.Recover(flagged)
	}
	res.EmbeddedDetected = detected
	res.EmbeddedAccuracy = model.Evaluate(embedded.Net, eval, 100)
	return res
}

// Render prints the comparison.
func (r RuntimeDetectionResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Run-time vs periodic detection (attack lands after the periodic scan)\n")
	sb.WriteString(row("clean", pct(r.Clean)) + "\n")
	sb.WriteString(row("periodic check", pct(r.PeriodicAccuracy), "0 flips caught") + "\n")
	sb.WriteString(row("embedded (RADAR)", pct(r.EmbeddedAccuracy),
		fmt.Sprintf("%d/%d flips caught", r.EmbeddedDetected, r.Flips)) + "\n")
	return sb.String()
}
