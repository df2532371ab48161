// Package adversary runs defense-aware attack campaigns against a
// RADAR-protected model. Where internal/attack implements the paper's
// oblivious bit-flip profiles (the attacker does not know a defense
// exists), this package models the next escalation: attackers that read
// the defender's configuration — its sweep interval, its grouping
// geometry, the location of its signature store — and shape their flips
// around it. Campaigns run in scrub windows against the real protector:
// each window opens with a tick of the rolling sweep internal/serve runs
// (core.Protector.SweepTick, on a window clock), and recovery and ECC
// correction are live. Flips are optionally priced by RateModel, a closed
// form of a DRAM bank's row-conflict latency, so attack throughput
// reflects rowhammer physics rather than free writes.
//
// Four attackers are provided:
//
//   - oblivious: the baseline. Random MSB flips spread uniformly over the
//     campaign, blind to the defense.
//   - scrub-timer: knows the sweep re-verifies everything older than half
//     a window at each window's tick, and back-loads its budget from the
//     last window down so as many flips as the rate allows are live at the
//     campaign horizon. One flip per checksum group, so the whole
//     campaign is single-bit-per-group and ECC-correctable once caught.
//   - below-threshold: knows the grouping geometry. It mounts MSB flips
//     in pairs within one group, choosing weights with opposite sign
//     bits so the checksum delta is 128·(s₂−s₁) for secret mask signs
//     s₁,s₂ — zero with probability ½. Half its pairs are permanently
//     invisible to the signature scan, surviving even full sweeps.
//   - sigstore: attacks the checksum metadata itself, flipping bits of
//     the stored golden signatures. Against zeroing-only recovery every
//     flagged-healthy group is destroyed by the defender's own reaction;
//     ECC-corrected recovery classifies the weights as intact and repairs
//     the signature instead.
//
// All direct weight writes deliberately bypass the quant.Model write
// observers (a physical attack does not announce itself). The sweep checks
// layers by age, not by observer, so bypassing them buys a flip nothing:
// what decides its dwell is when the sweep next reaches its layer.
package adversary

import (
	"fmt"
	"math/rand"
	"sort"

	"radar/internal/core"
	"radar/internal/quant"
)

// Target binds the model under attack to the protector defending it.
type Target struct {
	// Model is the attacked weight image.
	Model *quant.Model
	// Prot is the defense; adaptive attackers read its configuration and
	// the sigstore attacker writes its golden store.
	Prot *core.Protector
}

// SigFlip is one bit flip in the stored golden-signature metadata.
type SigFlip struct {
	// Layer and Group select the signature; Bit is the signature bit
	// (0 ≤ Bit < SigBits).
	Layer, Group, Bit int
}

// Volley is the set of flips an attacker mounts within one scrub window.
type Volley struct {
	// Weights are weight-bit flips (mounted as direct writes, invisible
	// to dirty tracking).
	Weights []quant.BitAddress
	// Signatures are golden-store bit flips (sigstore attacker only).
	Signatures []SigFlip
}

// Size returns the total flip count of the volley.
func (v Volley) Size() int { return len(v.Weights) + len(v.Signatures) }

// Attacker plans a campaign: a volley per scrub window, spending at most
// opt.Flips bit flips with at most opt.CapPerWindow() per window.
type Attacker interface {
	// Name is the campaign identifier ("oblivious", "scrub-timer", ...).
	Name() string
	// Plan distributes the budget over opt.Windows volleys. Plans are
	// deterministic in (target, opt, rng) — campaigns are reproducible.
	Plan(t Target, opt Options, rng *rand.Rand) []Volley
}

// Names lists the available attackers in presentation order.
func Names() []string {
	return []string{"oblivious", "scrub-timer", "below-threshold", "sigstore"}
}

// New returns the named attacker.
func New(name string) (Attacker, error) {
	switch name {
	case "oblivious":
		return Oblivious{}, nil
	case "scrub-timer":
		return ScrubTimer{}, nil
	case "below-threshold":
		return BelowThreshold{}, nil
	case "sigstore":
		return SigStore{}, nil
	}
	return nil, fmt.Errorf("adversary: unknown attacker %q (have %v)", name, Names())
}

// Mount applies one volley to the target: weight flips as direct Q writes
// (observer-bypassing, like the physical fault they model) and signature
// flips straight into the golden store. The caller provides exclusion
// against concurrent scans: the campaign engine and the serving layer both
// mount inside the protector's Exclusive section.
func Mount(t Target, v Volley) {
	for _, a := range v.Weights {
		l := t.Model.Layers[a.LayerIndex]
		l.Q[a.WeightIndex] = quant.FlipBit(l.Q[a.WeightIndex], a.Bit)
		l.SyncIndex(a.WeightIndex)
	}
	for _, f := range v.Signatures {
		t.Prot.Golden[f.Layer][f.Group] ^= 1 << uint(f.Bit)
	}
}

// PlanVolley plans a one-shot volley of the named attacker — the serving
// layer's injection endpoint, where the window structure of a full
// campaign does not apply.
func PlanVolley(t Target, name string, flips int, seed int64) (Volley, error) {
	atk, err := New(name)
	if err != nil {
		return Volley{}, err
	}
	opt := Options{Flips: flips, Windows: 1}
	vs := atk.Plan(t, opt, rand.New(rand.NewSource(seed)))
	out := Volley{}
	for _, v := range vs {
		out.Weights = append(out.Weights, v.Weights...)
		out.Signatures = append(out.Signatures, v.Signatures...)
	}
	return out, nil
}

// totalWeights returns the model's weight count and per-layer prefix
// bounds for uniform sampling.
func totalWeights(m *quant.Model) (total int, bound []int) {
	for _, l := range m.Layers {
		total += len(l.Q)
		bound = append(bound, total)
	}
	return total, bound
}

// sampleWeight draws a uniform (layer, weight) coordinate.
func sampleWeight(rng *rand.Rand, total int, bound []int) (li, wi int) {
	flat := rng.Intn(total)
	li = sort.SearchInts(bound, flat+1)
	if li > 0 {
		flat -= bound[li-1]
	}
	return li, flat
}
