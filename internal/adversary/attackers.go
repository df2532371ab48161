package adversary

import (
	"math/rand"

	"radar/internal/core"
	"radar/internal/quant"
)

// windowPicker assigns flips to uniform random windows subject to the
// per-window rate cap.
type windowPicker struct {
	room []int
}

func newWindowPicker(windows, capPerWindow int) *windowPicker {
	if capPerWindow <= 0 {
		capPerWindow = 1 << 30 // unlimited
	}
	room := make([]int, windows)
	for i := range room {
		room[i] = capPerWindow
	}
	return &windowPicker{room: room}
}

// pick returns a uniform random window with at least need slots free (and
// consumes them), or -1 when the campaign is out of capacity.
func (p *windowPicker) pick(rng *rand.Rand, need int) int {
	open := make([]int, 0, len(p.room))
	for w, r := range p.room {
		if r >= need {
			open = append(open, w)
		}
	}
	if len(open) == 0 {
		return -1
	}
	w := open[rng.Intn(len(open))]
	p.room[w] -= need
	return w
}

// distinctGroups samples up to n weight coordinates lying in pairwise
// distinct checksum groups — the building block of the single-bit-per-
// group campaigns. A budget above the model's group count plans what the
// group count does.
func distinctGroups(t Target, n int, rng *rand.Rand) []quant.BitAddress {
	n = min(n, t.Prot.NumGroups())
	total, bound := totalWeights(t.Model)
	seen := make(map[core.GroupID]bool, n)
	var out []quant.BitAddress
	for tries := 0; len(out) < n && tries < 50*n+100; tries++ {
		li, wi := sampleWeight(rng, total, bound)
		g := core.GroupID{Layer: li, Group: t.Prot.Schemes[li].GroupOf(wi, len(t.Model.Layers[li].Q))}
		if seen[g] {
			continue
		}
		seen[g] = true
		out = append(out, quant.BitAddress{LayerIndex: li, WeightIndex: wi, Bit: quant.MSB})
	}
	return out
}

// Oblivious is the baseline attacker: random MSB flips, uniformly spread
// over the campaign, blind to the defense. It corresponds to the paper's
// random-BFA threat model run over time.
type Oblivious struct{}

// Name implements Attacker.
func (Oblivious) Name() string { return "oblivious" }

// Plan implements Attacker.
func (Oblivious) Plan(t Target, opt Options, rng *rand.Rand) []Volley {
	vs := make([]Volley, opt.Windows)
	pick := newWindowPicker(opt.Windows, opt.CapPerWindow())
	total, bound := totalWeights(t.Model)
	// A budget above the weight count plans what the weight count does.
	for k := 0; k < min(opt.Flips, total); k++ {
		w := pick.pick(rng, 1)
		if w < 0 {
			break
		}
		li, wi := sampleWeight(rng, total, bound)
		vs[w].Weights = append(vs[w].Weights,
			quant.BitAddress{LayerIndex: li, WeightIndex: wi, Bit: quant.MSB})
	}
	return vs
}

// ScrubTimer knows the defender's schedule: each window opens with a sweep
// tick that re-verifies every layer older than half a window (while the
// model fits the tick's byte budget), so a flip mounted in any window but
// the last is caught by the next tick, and the last window's flips are
// never scanned before the campaign horizon. It back-loads its budget from
// the last window down. It hits one checksum group at most once, so its
// campaign is single-bit per group: maximally damaging against zeroing
// (each caught flip costs the defender a whole group) and exactly
// correctable under ECC.
type ScrubTimer struct{}

// Name implements Attacker.
func (ScrubTimer) Name() string { return "scrub-timer" }

// Plan implements Attacker.
func (ScrubTimer) Plan(t Target, opt Options, rng *rand.Rand) []Volley {
	capW := opt.CapPerWindow()
	if capW <= 0 {
		capW = opt.Flips
	}
	addrs := distinctGroups(t, opt.Flips, rng)
	vs := make([]Volley, opt.Windows)
	for w := opt.Windows - 1; w >= 0 && len(addrs) > 0; w-- {
		take := min(capW, len(addrs))
		vs[w].Weights, addrs = addrs[:take:take], addrs[take:]
	}
	return vs
}

// BelowThreshold knows the grouping geometry and stays below the
// signature's detection threshold: it mounts MSB flips in pairs inside a
// single checksum group, so the masked checksum delta is ±128 ± 128 —
// zero whenever the two secret mask signs cancel, which the attacker
// cannot steer but happens with probability ½. Those pairs never flag,
// surviving full scrubs and the campaign settle. Both flips of a pair
// land in the same volley; a split pair would expose a lone flip to an
// intervening scan.
type BelowThreshold struct{}

// Name implements Attacker.
func (BelowThreshold) Name() string { return "below-threshold" }

// Plan implements Attacker.
func (BelowThreshold) Plan(t Target, opt Options, rng *rand.Rand) []Volley {
	vs := make([]Volley, opt.Windows)
	pick := newWindowPicker(opt.Windows, opt.CapPerWindow())
	anchors := distinctGroups(t, opt.Flips/2, rng)
	for _, a := range anchors {
		l := t.Model.Layers[a.LayerIndex]
		s := t.Prot.Schemes[a.LayerIndex]
		m := s.Members(s.GroupOf(a.WeightIndex, len(l.Q)), len(l.Q))
		if len(m) < 2 {
			continue
		}
		w := pick.pick(rng, 2)
		if w < 0 {
			break
		}
		i := rng.Intn(len(m))
		j := rng.Intn(len(m) - 1)
		if j >= i {
			j++
		}
		vs[w].Weights = append(vs[w].Weights,
			quant.BitAddress{LayerIndex: a.LayerIndex, WeightIndex: m[i], Bit: quant.MSB},
			quant.BitAddress{LayerIndex: a.LayerIndex, WeightIndex: m[j], Bit: quant.MSB})
	}
	return vs
}

// SigStore attacks the defense's own metadata: it flips bits of the
// stored golden signatures instead of the weights. Every corrupted
// signature makes a healthy group scan as corrupted, so a zeroing-only
// defender destroys G good weights per flip — the attack weaponizes the
// recovery path. ECC-corrected recovery is the antidote: the group's
// check word certifies the weights intact (class 0) and the signature is
// recomputed instead.
type SigStore struct{}

// Name implements Attacker.
func (SigStore) Name() string { return "sigstore" }

// Plan implements Attacker.
func (SigStore) Plan(t Target, opt Options, rng *rand.Rand) []Volley {
	vs := make([]Volley, opt.Windows)
	pick := newWindowPicker(opt.Windows, opt.CapPerWindow())
	// A budget above the group count plans what the group count does.
	budget := min(opt.Flips, t.Prot.NumGroups())
	seen := make(map[core.GroupID]bool, budget)
	for tries := 0; len(seen) < budget && tries < 50*budget+100; tries++ {
		li := rng.Intn(len(t.Model.Layers))
		s := t.Prot.Schemes[li]
		n := s.NumGroups(len(t.Model.Layers[li].Q))
		g := core.GroupID{Layer: li, Group: rng.Intn(n)}
		if seen[g] {
			continue
		}
		w := pick.pick(rng, 1)
		if w < 0 {
			break
		}
		seen[g] = true
		vs[w].Signatures = append(vs[w].Signatures,
			SigFlip{Layer: g.Layer, Group: g.Group, Bit: rng.Intn(s.SigBits)})
	}
	return vs
}
