package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"radar/internal/adversary"
	"radar/internal/core"
	"radar/internal/data"
	"radar/internal/model"
)

// RecoveryRun is one (adversary, recovery-mode) cell of the recovery
// scaling experiment: a full campaign of the named attacker against the
// ResNet-20s model under one defense configuration, with accuracy measured
// clean, at the campaign horizon (undetected flips still live), and after
// the defender's final full scrub.
type RecoveryRun struct {
	// Mode is the defense configuration: "undefended" (no scrubs at all),
	// "zero" (detect + group zero-out, the paper's recovery), or "ecc"
	// (detect + per-group Hamming correction with zeroing fallback).
	Mode string `json:"mode"`
	// Outcome is the campaign ledger: mounted/detected/survived flips,
	// dwell, the defender's corrected/zeroed split, and rowhammer pricing.
	Outcome adversary.Outcome `json:"outcome"`
	// DetectionRate is detected flips over mounted flips (weights and
	// signatures combined); CorrectionRate is flagged groups repaired in
	// place rather than zeroed. Both are 0 when nothing was mounted or
	// flagged.
	DetectionRate  float64 `json:"detection_rate"`
	CorrectionRate float64 `json:"correction_rate"`
	// AccLive is top-1 accuracy at the campaign horizon, before the final
	// scrub; AccSettled is after it. Under "undefended" both measure the
	// unrepaired model.
	AccLive    float64 `json:"acc_live"`
	AccSettled float64 `json:"acc_settled"`
	// BitIdentical reports whether the settled weight image matched the
	// clean checkpoint byte for byte — the ECC headline for single-bit
	// campaigns, and structurally true for sigstore (weights untouched).
	BitIdentical bool `json:"bit_identical"`
}

// RecoveryScaleResult is the accuracy-after-attack comparison across the
// adversary × recovery-mode grid, written as BENCH_recoveryscale.json by
// radar-bench -exp recoveryscale. Each adversary runs the identical
// campaign (same seed, same grouping geometry) against all three defense
// modes, so within an adversary the accuracy columns differ only by how
// the defender reacts.
type RecoveryScaleResult struct {
	// Model is the evaluation model; GPaper is the paper-label group size
	// and GScaled its width-scaled value actually deployed (see ScaledG).
	Model   string `json:"model"`
	GPaper  int    `json:"g_paper"`
	GScaled int    `json:"g_scaled"`
	// Flips/Windows/ScrubMs shape every campaign (ScrubMs is the sweep
	// interval); SecondsPerFlip and CapPerWindow are the rowhammer pricing
	// all attackers pay.
	Flips          int     `json:"flips"`
	Windows        int     `json:"windows"`
	ScrubMs        int64   `json:"scrub_ms"`
	SecondsPerFlip float64 `json:"seconds_per_flip"`
	CapPerWindow   int     `json:"cap_per_window"`
	// EvalN is the evaluation-set cap; AccClean the unattacked reference
	// accuracy on it. Mapped records whether the per-run checkpoints took
	// the mmap path (corrected bytes are msync'd back through it).
	EvalN    int     `json:"eval_n"`
	AccClean float64 `json:"acc_clean"`
	Mapped   bool    `json:"mapped"`
	// Runs holds the grid in adversary-major order (adversary.Names() ×
	// undefended/zero/ecc).
	Runs map[string][]RecoveryRun `json:"runs"`
}

// recoveryModes are the defense configurations each adversary is run
// against, in presentation order.
var recoveryModes = []string{"undefended", "zero", "ecc"}

// RecoveryScale runs every adversary campaign against every recovery mode
// on the ResNet-20s model. Each run loads a fresh bundle, maps it onto its
// own temp store checkpoint (so ECC corrections exercise the full
// observer→dirty→msync chain), protects it at the paper's G=128 deployment
// point, executes the campaign window by window against the live defense,
// and measures top-1 accuracy at the horizon and after settling. The flip
// budget is scaled down when the context is test-sized.
func RecoveryScale(c *Context) RecoveryScaleResult {
	const gPaper = 128
	res := RecoveryScaleResult{
		Model:   ModelRN20,
		GPaper:  gPaper,
		GScaled: ScaledG(ModelRN20, gPaper),
		Flips:   240,
		Windows: 12,
		ScrubMs: 100,
		EvalN:   c.Opt.EvalN,
		Runs:    make(map[string][]RecoveryRun, len(adversary.Names())),
	}
	if c.Opt.Rounds20 < 8 { // test-sized context: shrink the campaign
		res.Flips, res.Windows = 48, 6
	}
	rate := adversary.DefaultRateModel()
	res.SecondsPerFlip = rate.SecondsPerFlip()

	dir, err := os.MkdirTemp("", "radar-recoveryscale-*")
	if err != nil {
		panic(fmt.Sprintf("exp: recoveryscale temp dir: %v", err))
	}
	defer os.RemoveAll(dir)

	eval := c.EvalSet(ModelRN20)
	res.AccClean = model.Evaluate(model.Load(specFor(ModelRN20)).Net, eval, 100)

	aopt := adversary.Options{
		Flips:      res.Flips,
		Windows:    res.Windows,
		ScrubEvery: time.Duration(res.ScrubMs) * time.Millisecond,
		Rate:       rate,
		Seed:       c.Opt.Seed,
	}
	res.CapPerWindow = aopt.CapPerWindow()

	run := 0
	for _, name := range adversary.Names() {
		for _, mode := range recoveryModes {
			path := filepath.Join(dir, fmt.Sprintf("run%02d.radar", run))
			run++
			r, mapped := recoveryRun(name, mode, aopt, res.GScaled, path, eval, c.Opt.Seed)
			res.Mapped = mapped
			res.Runs[name] = append(res.Runs[name], r)
		}
	}
	return res
}

// recoveryRun executes one campaign cell on a fresh mapped checkpoint.
func recoveryRun(name, mode string, aopt adversary.Options, g int, path string, eval *data.Dataset, seed int64) (RecoveryRun, bool) {
	b := model.Load(specFor(ModelRN20))
	ck, err := model.MapCheckpoint(b, path)
	if err != nil {
		panic(fmt.Sprintf("exp: recoveryscale map %s: %v", path, err))
	}
	defer ck.Close()

	clean := make([][]int8, len(b.QModel.Layers))
	for li, l := range b.QModel.Layers {
		clean[li] = append([]int8(nil), l.Q...)
	}

	cfg := core.DefaultConfig(g)
	cfg.Seed = seed // identical grouping/masks across modes: same campaign
	cfg.Correct = mode == "ecc"
	p := core.Protect(b.QModel, cfg)

	aopt.NoDefense = mode == "undefended"
	atk, err := adversary.New(name)
	if err != nil {
		panic(fmt.Sprintf("exp: recoveryscale: %v", err))
	}
	camp := adversary.NewCampaign(adversary.Target{Model: b.QModel, Prot: p}, atk, aopt)
	camp.Run()
	r := RecoveryRun{Mode: mode, AccLive: model.Evaluate(b.Net, eval, 100)}
	camp.Settle()
	r.Outcome = camp.Outcome()
	r.AccSettled = model.Evaluate(b.Net, eval, 100)
	if err := ck.SyncDirty(); err != nil {
		panic(fmt.Sprintf("exp: recoveryscale sync: %v", err))
	}

	if mounted := r.Outcome.Mounted + r.Outcome.SigMounted; mounted > 0 {
		r.DetectionRate = float64(r.Outcome.Detected+r.Outcome.SigDetected) / float64(mounted)
	}
	if r.Outcome.GroupsFlagged > 0 {
		r.CorrectionRate = float64(r.Outcome.GroupsCorrected) / float64(r.Outcome.GroupsFlagged)
	}
	r.BitIdentical = true
	for li, l := range b.QModel.Layers {
		for i, v := range l.Q {
			if v != clean[li][i] {
				r.BitIdentical = false
				break
			}
		}
		if !r.BitIdentical {
			break
		}
	}
	// Deterministic invariant, not a statistical one: the scrub-timer
	// campaign is single-bit-per-group by construction, so ECC settling
	// must restore the exact clean image.
	if name == "scrub-timer" && mode == "ecc" && !r.BitIdentical {
		panic("exp: recoveryscale: ECC settle of a single-bit campaign is not bit-identical")
	}
	return r, ck.Mapped()
}

// Render prints the grid: one block per adversary, one row per recovery
// mode.
func (r RecoveryScaleResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Adversary campaigns vs. recovery modes — %s, G=%d (scaled %d), %d flips over %d windows (a %d ms sweep tick each), clean %s\n",
		r.Model, r.GPaper, r.GScaled, r.Flips, r.Windows, r.ScrubMs, pct(r.AccClean))
	fmt.Fprintf(&sb, "rowhammer pricing: %.1f ms/flip → cap %d flips per %d ms window\n",
		1e3*r.SecondsPerFlip, r.CapPerWindow, r.ScrubMs)
	line := func(cells ...string) {
		// The adversary column needs more room than the shared row() width
		// ("below-threshold" is 15 characters).
		fmt.Fprintf(&sb, "%-17s", cells[0])
		sb.WriteString(row(cells[1:]...) + "\n")
	}
	line("adversary", "mode", "mounted", "detected", "corrected", "zeroed", "acc live", "acc settled")
	for _, name := range adversary.Names() {
		for _, rr := range r.Runs[name] {
			o := rr.Outcome
			det := "—"
			if mounted := o.Mounted + o.SigMounted; mounted > 0 && rr.Mode != "undefended" {
				det = pct(rr.DetectionRate)
			}
			settled := pct(rr.AccSettled)
			if rr.BitIdentical {
				settled += " (bit-identical)"
			}
			line(name, rr.Mode,
				fmt.Sprintf("%d", o.Mounted+o.SigMounted), det,
				fmt.Sprintf("%d", o.GroupsCorrected), fmt.Sprintf("%d", o.GroupsZeroed),
				pct(rr.AccLive), settled)
		}
	}
	return sb.String()
}

// WriteJSON writes the result as indented JSON — the machine-readable
// BENCH artifact consumed by the benchmark trajectory.
func (r RecoveryScaleResult) WriteJSON(path string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
