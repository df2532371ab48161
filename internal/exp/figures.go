package exp

import (
	"fmt"
	"strings"

	"radar/internal/adversary"
	"radar/internal/attack"
	"radar/internal/core"
	"radar/internal/model"
	"radar/internal/quant"
)

// Figure2Groups lists the swept group sizes per model (paper Fig 2/4).
func Figure2Groups(name string) []int {
	if name == ModelRN18 {
		return []int{64, 128, 256, 512, 1024}
	}
	return []int{4, 8, 16, 32, 64}
}

// Figure2Result reproduces Fig 2: the proportion of attack rounds in which
// at least one checksum group receives multiple vulnerable bits, as a
// function of group size (contiguous grouping, the pre-interleave view).
type Figure2Result struct {
	// Proportion maps model → G → fraction of rounds with a multi-bit group.
	Proportion map[string]map[int]float64
	// Gs echoes the sweep per model.
	Gs map[string][]int
}

// Figure2 computes group-occupancy statistics of the PBFA profiles.
func Figure2(c *Context) Figure2Result {
	res := Figure2Result{
		Proportion: map[string]map[int]float64{},
		Gs:         map[string][]int{},
	}
	for _, name := range []string{ModelRN20, ModelRN18} {
		res.Gs[name] = Figure2Groups(name)
		res.Proportion[name] = map[int]float64{}
		profiles := c.Profiles(name)
		for _, g := range res.Gs[name] {
			gs := ScaledG(name, g)
			multi := 0
			for _, p := range profiles {
				if hasMultiBitGroup(p, gs) {
					multi++
				}
			}
			res.Proportion[name][g] = float64(multi) / float64(len(profiles))
		}
	}
	return res
}

// hasMultiBitGroup reports whether any contiguous group of size g receives
// two or more flips of the profile.
func hasMultiBitGroup(p attack.Profile, g int) bool {
	seen := map[[2]int]int{}
	for _, f := range p {
		key := [2]int{f.Addr.LayerIndex, f.Addr.WeightIndex / g}
		seen[key]++
		if seen[key] >= 2 {
			return true
		}
	}
	return false
}

// Render prints the Fig 2 series.
func (r Figure2Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 2: Proportion of rounds with multiple vulnerable bits in one group\n")
	for _, name := range []string{ModelRN20, ModelRN18} {
		cells := []string{name}
		for _, g := range r.Gs[name] {
			cells = append(cells, fmt.Sprintf("G=%d:%s", g, pct(r.Proportion[name][g])))
		}
		sb.WriteString(row(cells...) + "\n")
	}
	return sb.String()
}

// DetectionCell is one Fig 4 point: mean detected flips out of NumFlips.
type DetectionCell struct {
	// Plain and Interleaved are mean detected counts.
	Plain, Interleaved float64
}

// Figure4Result reproduces Fig 4: average detected bit-flips vs G.
type Figure4Result struct {
	// Detected maps model → G → detection means.
	Detected map[string]map[int]DetectionCell
	// Gs echoes the sweep; NumFlips the attack size.
	Gs       map[string][]int
	NumFlips int
}

// Figure4 protects a fresh model per (G, interleave) configuration,
// replays each PBFA profile, scans, and counts how many of the profile's
// flips land in flagged groups.
func Figure4(c *Context) Figure4Result {
	res := Figure4Result{
		Detected: map[string]map[int]DetectionCell{},
		Gs:       map[string][]int{},
		NumFlips: c.Opt.NumFlips,
	}
	for _, name := range []string{ModelRN20, ModelRN18} {
		res.Gs[name] = Figure2Groups(name)
		res.Detected[name] = map[int]DetectionCell{}
		profiles := c.Profiles(name)
		for _, g := range res.Gs[name] {
			var cell DetectionCell
			for _, inter := range []bool{false, true} {
				var sum float64
				for _, p := range profiles {
					cfg := core.DefaultConfig(ScaledG(name, g))
					cfg.Interleave = inter
					detected, _ := c.replay(name, &cfg, p.Addresses(), false)
					sum += float64(detected)
				}
				mean := sum / float64(len(profiles))
				if inter {
					cell.Interleaved = mean
				} else {
					cell.Plain = mean
				}
			}
			res.Detected[name][g] = cell
		}
	}
	return res
}

// Render prints the Fig 4 series.
func (r Figure4Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 4: Average detected bit-flips out of %d (plain/interleave)\n", r.NumFlips)
	for _, name := range []string{ModelRN20, ModelRN18} {
		cells := []string{name}
		for _, g := range r.Gs[name] {
			d := r.Detected[name][g]
			cells = append(cells, fmt.Sprintf("G=%d:%.1f/%.1f", g, d.Plain, d.Interleaved))
		}
		sb.WriteString(row(cells...) + "\n")
	}
	return sb.String()
}

// Figure5Result reproduces Fig 5: ResNet-18 recovery bars (a rendering of
// the Table III data for the ImageNet-substitute model).
type Figure5Result struct {
	// T3 is the underlying Table III data.
	T3 TableIIIResult
}

// Figure5 derives the bar-chart series from Table III.
func Figure5(t3 TableIIIResult) Figure5Result { return Figure5Result{T3: t3} }

// Render prints the Fig 5 bars.
func (r Figure5Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 5: Accuracy recovery on the ResNet-18 substitute (interleaved)\n")
	gs := r.T3.Gs[ModelRN18]
	for _, nbf := range []int{5, 10} {
		cells := []string{fmt.Sprintf("N_BF=%d", nbf), "w/o:" + pct(r.T3.Attacked[ModelRN18][nbf])}
		for _, g := range gs {
			cells = append(cells, fmt.Sprintf("G=%d:%s", g, pct(r.T3.Cells[ModelRN18][nbf][g].Interleaved)))
		}
		sb.WriteString(row(cells...) + "\n")
	}
	fmt.Fprintf(&sb, "clean accuracy: %s\n", pct(r.T3.Clean[ModelRN18]))
	return sb.String()
}

// TradeoffPoint is one Fig 6 point.
type TradeoffPoint struct {
	// G is the group size.
	G int
	// StorageKB is the signature storage on the full-size model.
	StorageKB float64
	// Accuracy is the recovered accuracy on the scaled model (N_BF = 10,
	// interleaved).
	Accuracy float64
}

// Figure6Result reproduces Fig 6: recovery accuracy vs storage overhead.
type Figure6Result struct {
	// Points maps model name to its trade-off curve.
	Points map[string][]TradeoffPoint
}

// Figure6 sweeps G, measuring recovered accuracy on the scaled models and
// signature storage on the full-size shape tables (where the paper's KB
// figures live).
func Figure6(c *Context) Figure6Result {
	res := Figure6Result{Points: map[string][]TradeoffPoint{}}
	for _, d := range deployments() {
		name := d.scaled
		profiles := c.Profiles(name)[:min(c.Opt.RecoverRounds, c.Opt.roundsFor(name))]
		weights := layerWeights(d.tab)
		for _, g := range Figure2Groups(name) {
			var accSum float64
			for _, p := range profiles {
				cfg := core.DefaultConfig(ScaledG(name, g))
				_, acc := c.replay(name, &cfg, p.Addresses(), true)
				accSum += acc
			}
			res.Points[name] = append(res.Points[name], TradeoffPoint{
				G:         g,
				StorageKB: core.StorageForWeights(weights, g, 2, true).SignatureKB(),
				Accuracy:  accSum / float64(len(profiles)),
			})
		}
	}
	return res
}

// Render prints the Fig 6 curves.
func (r Figure6Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 6: Recovered accuracy vs signature storage (N_BF=10, interleaved)\n")
	for _, name := range []string{ModelRN20, ModelRN18} {
		for _, p := range r.Points[name] {
			sb.WriteString(row(name, fmt.Sprintf("G=%d", p.G),
				fmt.Sprintf("%.2fKB", p.StorageKB), pct(p.Accuracy)) + "\n")
		}
	}
	return sb.String()
}

// Figure7Result reproduces Fig 7: the knowledgeable attacker who appends
// paired opposite-direction flips to evade the addition checksum.
type Figure7Result struct {
	// Detected maps G → mean detected flips (plain/interleaved) out of
	// TotalFlips.
	Detected map[int]DetectionCell
	// Recovered maps G → mean recovered accuracy (plain/interleaved).
	Recovered map[int]RecoveryCell
	// Gs is the sweep; TotalFlips counts base + evasion flips.
	Gs         []int
	TotalFlips int
}

// Figure7 runs the §VIII knowledgeable attacker on the ResNet-20s model:
// each PBFA profile is augmented with one cancelling MSB flip per original
// flip, aimed at the attacker's assumed contiguous group of size G. The
// attacker plans its pairs on an unprotected copy carrying the base
// profile, once per (G, round); both groupings then replay the same
// combined flip set.
func Figure7(c *Context) Figure7Result {
	res := Figure7Result{
		Detected:  map[int]DetectionCell{},
		Recovered: map[int]RecoveryCell{},
		Gs:        Figure2Groups(ModelRN20),
	}
	profiles := c.Profiles(ModelRN20)
	copies := make([]*quant.Model, len(profiles))
	for ri, p := range profiles {
		copies[ri] = model.Load(specFor(ModelRN20)).QModel
		adversary.Mount(adversary.Target{Model: copies[ri]}, adversary.Volley{Weights: p.Addresses()})
	}
	for _, g := range res.Gs {
		gs := ScaledG(ModelRN20, g)
		var det DetectionCell
		var rec RecoveryCell
		for ri, p := range profiles {
			extra := attack.PairedEvasion(copies[ri], p, max(gs, 2), c.Opt.Seed+int64(ri))
			// PairedEvasion flipped its pairs into the copy: flip them back
			// for the next G.
			adversary.Mount(adversary.Target{Model: copies[ri]}, adversary.Volley{Weights: extra.Addresses()})
			all := append(append(attack.Profile{}, p...), extra...).Addresses()
			res.TotalFlips = max(res.TotalFlips, len(all))
			for _, inter := range []bool{false, true} {
				cfg := core.DefaultConfig(gs)
				cfg.Interleave = inter
				detected, acc := c.replay(ModelRN20, &cfg, all, true)
				if inter {
					det.Interleaved += float64(detected)
					rec.Interleaved += acc
				} else {
					det.Plain += float64(detected)
					rec.Plain += acc
				}
			}
		}
		n := float64(len(profiles))
		res.Detected[g] = DetectionCell{Plain: det.Plain / n, Interleaved: det.Interleaved / n}
		res.Recovered[g] = RecoveryCell{Plain: rec.Plain / n, Interleaved: rec.Interleaved / n}
	}
	return res
}

// Render prints the Fig 7 series.
func (r Figure7Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 7: Knowledgeable attacker (%d total flips, plain/interleave)\n", r.TotalFlips)
	for _, g := range r.Gs {
		d, a := r.Detected[g], r.Recovered[g]
		sb.WriteString(row(fmt.Sprintf("G=%d", g),
			fmt.Sprintf("det %.1f/%.1f", d.Plain, d.Interleaved),
			fmt.Sprintf("acc %.1f%%/%.1f%%", 100*a.Plain, 100*a.Interleaved)) + "\n")
	}
	return sb.String()
}
