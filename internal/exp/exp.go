// Package exp contains one runner per table and figure of the paper's
// evaluation (see README.md §Experiments for the index). Each runner
// returns a structured result with a Render method that prints the same
// rows/series the paper reports. Runners take an Options scale so tests
// can run small while the benchmark harness regenerates the full artifacts.
package exp

import (
	"fmt"
	"strings"
	"sync"

	"radar/internal/adversary"
	"radar/internal/attack"
	"radar/internal/core"
	"radar/internal/data"
	"radar/internal/model"
	"radar/internal/quant"
)

// Options scales the experiments.
type Options struct {
	// Rounds20 and Rounds18 are the PBFA attack rounds used for statistics
	// on the ResNet-20s / ResNet-18s models (paper: 100).
	Rounds20, Rounds18 int
	// NumFlips is N_BF for the statistics experiments (paper: 10).
	NumFlips int
	// EvalN caps the test samples used for accuracy evaluations.
	EvalN int
	// RecoverRounds is how many attack rounds Table III averages over.
	RecoverRounds int
	// MissRounds is the §VI.B micro-experiment round count (paper: 10⁶).
	MissRounds int
	// Seed offsets every per-round seed, keeping runs reproducible.
	Seed int64
}

// Quick returns a scale suitable for unit tests (minutes, not hours).
func Quick() Options {
	return Options{
		Rounds20: 4, Rounds18: 1, NumFlips: 10,
		EvalN: 300, RecoverRounds: 2, MissRounds: 30_000, Seed: 1,
	}
}

// Full returns the paper's round counts (`radar-bench -scale full`).
func Full() Options {
	return Options{
		Rounds20: 25, Rounds18: 8, NumFlips: 10,
		EvalN: 1000, RecoverRounds: 4, MissRounds: 1_000_000, Seed: 1,
	}
}

// ModelRN20 and ModelRN18 name the two scaled evaluation models.
const (
	ModelRN20 = "resnet20s"
	ModelRN18 = "resnet18s"
)

// specFor maps a model name to its zoo spec.
func specFor(name string) model.Spec {
	spec, ok := model.SpecByName(name)
	if !ok {
		panic("exp: unknown model " + name)
	}
	return spec
}

// ScaledG maps a paper group size onto the scaled evaluation model. The
// paper's G values are meaningful relative to the model's total weight
// count (a G=512 group is 0.0044% of the real ResNet-18); applying them
// verbatim to the width-scaled models would zero 30× more of the network
// per recovery and skew group-collision statistics. The scaled models use
// G' = max(1, round(G · scaledWeights / fullWeights)) and every result is
// reported under the paper's G label.
func ScaledG(name string, gPaper int) int {
	var ratio float64
	switch name {
	case ModelRN20:
		ratio = 67992.0 / 272474.0
	case ModelRN18:
		ratio = 394500.0 / 11689512.0
	default:
		ratio = 1
	}
	g := int(float64(gPaper)*ratio + 0.5)
	if g < 1 {
		g = 1
	}
	return g
}

// roundsFor returns the configured rounds for a model.
func (o Options) roundsFor(name string) int {
	if name == ModelRN18 {
		return o.Rounds18
	}
	return o.Rounds20
}

// Context caches expensive intermediates — primarily PBFA profiles, which
// several experiments share — so one harness run attacks each model once
// per round rather than once per table.
type Context struct {
	// Opt is the experiment scale.
	Opt Options

	mu       sync.Mutex
	profiles map[string][]attack.Profile
	evals    map[string]*data.Dataset
}

// NewContext builds a context at the given scale.
func NewContext(opt Options) *Context {
	return &Context{
		Opt:      opt,
		profiles: map[string][]attack.Profile{},
		evals:    map[string]*data.Dataset{},
	}
}

// Profiles returns (computing on first use) the per-round PBFA profiles of
// the named model at the context's NumFlips.
func (c *Context) Profiles(name string) []attack.Profile {
	c.mu.Lock()
	got := c.profiles[name]
	c.mu.Unlock()
	if got != nil {
		return got
	}
	rounds := c.Opt.roundsFor(name)
	out := make([]attack.Profile, rounds)
	for r := 0; r < rounds; r++ {
		b := model.Load(specFor(name))
		cfg := attack.ConfigFor(name, c.Opt.NumFlips, c.Opt.Seed+int64(r)*101)
		out[r] = attack.PBFA(b.QModel, b.Attack, cfg)
	}
	c.mu.Lock()
	c.profiles[name] = out
	c.mu.Unlock()
	return out
}

// replay is the one experiment behind Table III, Figs. 4–7, §VIII and the
// rowhammer run: it lands flips as rowhammer writes on a fresh copy of the
// named model, protected with cfg beforehand unless cfg is nil (the
// undefended deployment), then runs one full scan with recovery. It
// returns how many flips landed in flagged groups and, only when evaluate
// is set (evaluation is most of a replay's cost), the EvalSet accuracy
// afterwards. A protected model that no flip touched must flag nothing.
func (c *Context) replay(name string, cfg *core.Config, flips []quant.BitAddress, evaluate bool) (detected int, acc float64) {
	b := model.Load(specFor(name))
	var prot *core.Protector
	if cfg != nil {
		prot = core.Protect(b.QModel, *cfg)
	}
	adversary.Mount(adversary.Target{Model: b.QModel}, adversary.Volley{Weights: flips})
	if prot != nil {
		flagged, _ := prot.DetectAndRecover()
		if len(flips) == 0 && len(flagged) != 0 {
			panic("exp: a protected clean model flagged groups")
		}
		detected = prot.CountDetected(flips, flagged)
	}
	if evaluate {
		acc = model.Evaluate(b.Net, c.EvalSet(name), 100)
	}
	return detected, acc
}

// deployment is one of the paper's full-size deployment points: a shape
// table, the group size the paper prices it at, and the scaled model that
// stands in for it in the accuracy experiments.
type deployment struct {
	tab    *model.ShapeTable
	g      int
	scaled string
}

// deployments lists the paper's two deployment points: ResNet-20 on
// CIFAR-10 at G = 8 and ResNet-18 on ImageNet at G = 512.
func deployments() []deployment {
	return []deployment{
		{model.ResNet20CIFARShapes(), 8, ModelRN20},
		{model.ResNet18ImageNetShapes(), 512, ModelRN18},
	}
}

// layerWeights lists a shape table's per-layer weight counts.
func layerWeights(t *model.ShapeTable) []int {
	w := make([]int, len(t.Layers))
	for i, l := range t.Layers {
		w[i] = l.Weights
	}
	return w
}

// EvalSet returns the (cached) capped evaluation subset for a model.
func (c *Context) EvalSet(name string) *data.Dataset {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d := c.evals[name]; d != nil {
		return d
	}
	b := model.Load(specFor(name))
	d := b.Test
	if c.Opt.EvalN > 0 && c.Opt.EvalN < d.Len() {
		idx := make([]int, c.Opt.EvalN)
		for i := range idx {
			idx[i] = i
		}
		d = d.Subset(idx)
	}
	c.evals[name] = d
	return d
}

// row formats a table row: each cell padded to 14 columns and followed by
// at least one space, so a longer cell never fuses with the next.
func row(cells ...string) string {
	var sb strings.Builder
	for _, c := range cells {
		fmt.Fprintf(&sb, "%-13s ", c)
	}
	return strings.TrimRight(sb.String(), " ")
}

// pct formats a fraction as a percentage.
func pct(f float64) string { return fmt.Sprintf("%.2f%%", 100*f) }
