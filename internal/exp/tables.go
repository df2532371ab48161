package exp

import (
	"fmt"
	"strings"

	"radar/internal/attack"
	"radar/internal/core"
	"radar/internal/ecc"
	"radar/internal/memsim"
	"radar/internal/model"
)

// TableIResult reproduces Table I: PBFA bit-position statistics.
type TableIResult struct {
	// Stats maps model name to its bit-position counts.
	Stats map[string]attack.BitPositionStats
	// FlipsPerModel is the total flips classified per model.
	FlipsPerModel map[string]int
}

// TableI runs the bit-position characterization on both models.
func TableI(c *Context) TableIResult {
	res := TableIResult{
		Stats:         map[string]attack.BitPositionStats{},
		FlipsPerModel: map[string]int{},
	}
	for _, name := range []string{ModelRN20, ModelRN18} {
		ps := c.Profiles(name)
		res.Stats[name] = attack.Classify(ps)
		n := 0
		for _, p := range ps {
			n += len(p)
		}
		res.FlipsPerModel[name] = n
	}
	return res
}

// Render prints the Table I layout.
func (r TableIResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Table I: Number of PBFA attacks in different bit positions\n")
	sb.WriteString(row("model", "MSB(0→1)", "MSB(1→0)", "others", "total") + "\n")
	for _, name := range []string{ModelRN20, ModelRN18} {
		s := r.Stats[name]
		sb.WriteString(row(name,
			fmt.Sprint(s.MSB01), fmt.Sprint(s.MSB10), fmt.Sprint(s.Others),
			fmt.Sprint(r.FlipsPerModel[name])) + "\n")
	}
	return sb.String()
}

// TableIIResult reproduces Table II: targeted-weight value ranges.
type TableIIResult struct {
	// Stats maps model name to range buckets.
	Stats map[string]attack.WeightRangeStats
}

// TableII buckets the pre-flip values of every targeted weight.
func TableII(c *Context) TableIIResult {
	res := TableIIResult{Stats: map[string]attack.WeightRangeStats{}}
	for _, name := range []string{ModelRN20, ModelRN18} {
		res.Stats[name] = attack.ClassifyRanges(c.Profiles(name))
	}
	return res
}

// Render prints the Table II layout.
func (r TableIIResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Table II: Frequency of targeted weights in different ranges\n")
	sb.WriteString(row("model", "(-128,-32]", "(-32,0]", "(0,32)", "[32,127)") + "\n")
	for _, name := range []string{ModelRN20, ModelRN18} {
		s := r.Stats[name]
		sb.WriteString(row(name,
			fmt.Sprint(s.NegLarge), fmt.Sprint(s.NegSmall),
			fmt.Sprint(s.PosSmall), fmt.Sprint(s.PosLarge)) + "\n")
	}
	return sb.String()
}

// RecoveryCell is one Table III cell: accuracy without and with interleave.
type RecoveryCell struct {
	// Plain and Interleaved are mean recovered accuracies.
	Plain, Interleaved float64
}

// TableIIIResult reproduces Table III: accuracy recovery.
type TableIIIResult struct {
	// Clean maps model name to clean accuracy.
	Clean map[string]float64
	// Attacked maps model/N_BF to the undefended attacked accuracy.
	Attacked map[string]map[int]float64
	// Cells maps model → N_BF → G → recovery accuracies.
	Cells map[string]map[int]map[int]RecoveryCell
	// Gs maps model name to the swept group sizes.
	Gs map[string][]int
}

// TableIIIGroups lists the paper's per-model group-size sweeps.
func TableIIIGroups(name string) []int {
	if name == ModelRN18 {
		return []int{128, 256, 512}
	}
	return []int{8, 16, 32}
}

// TableIII measures recovery accuracy for N_BF ∈ {5, 10} across group
// sizes, with and without interleaving, averaged over RecoverRounds attack
// rounds. A profile's first 5 flips are exactly the 5-flip attack (PBFA is
// progressive), so both N_BF points reuse one profile per round.
func TableIII(c *Context) TableIIIResult {
	res := TableIIIResult{
		Clean:    map[string]float64{},
		Attacked: map[string]map[int]float64{},
		Cells:    map[string]map[int]map[int]RecoveryCell{},
		Gs:       map[string][]int{},
	}
	for _, name := range []string{ModelRN20, ModelRN18} {
		gs := TableIIIGroups(name)
		res.Gs[name] = gs
		res.Attacked[name] = map[int]float64{}
		res.Cells[name] = map[int]map[int]RecoveryCell{}
		res.Clean[name] = model.Load(specFor(name)).CleanAccuracy
		profiles := c.Profiles(name)[:min(c.Opt.RecoverRounds, c.Opt.roundsFor(name))]

		for _, nbf := range []int{5, 10} {
			res.Cells[name][nbf] = map[int]RecoveryCell{}
			var attackedSum float64
			sums := map[int]*RecoveryCell{}
			for _, g := range gs {
				sums[g] = &RecoveryCell{}
			}
			for _, p := range profiles {
				if nbf < len(p) {
					p = p[:nbf]
				}
				_, acc := c.replay(name, nil, p.Addresses(), true)
				attackedSum += acc
				for _, g := range gs {
					for _, inter := range []bool{false, true} {
						cfg := core.DefaultConfig(ScaledG(name, g))
						cfg.Interleave = inter
						_, acc := c.replay(name, &cfg, p.Addresses(), true)
						if inter {
							sums[g].Interleaved += acc
						} else {
							sums[g].Plain += acc
						}
					}
				}
			}
			n := float64(len(profiles))
			res.Attacked[name][nbf] = attackedSum / n
			for _, g := range gs {
				res.Cells[name][nbf][g] = RecoveryCell{
					Plain:       sums[g].Plain / n,
					Interleaved: sums[g].Interleaved / n,
				}
			}
		}
	}
	return res
}

// Render prints the Table III layout.
func (r TableIIIResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Table III: Accuracy recovery of the RADAR scheme\n")
	for _, name := range []string{ModelRN20, ModelRN18} {
		gs := r.Gs[name]
		head := []string{name, "baseline"}
		for _, g := range gs {
			head = append(head, fmt.Sprintf("G=%d", g))
		}
		sb.WriteString(row(head...) + "\n")
		sb.WriteString(row("N_BF=0", pct(r.Clean[name])) + "\n")
		for _, nbf := range []int{5, 10} {
			cells := []string{fmt.Sprintf("N_BF=%d", nbf), pct(r.Attacked[name][nbf])}
			for _, g := range gs {
				c := r.Cells[name][nbf][g]
				cells = append(cells, fmt.Sprintf("%.1f/%.1f", 100*c.Plain, 100*c.Interleaved))
			}
			sb.WriteString(row(cells...) + "\n")
		}
	}
	sb.WriteString("(cells: recovered accuracy %, without/with interleave)\n")
	return sb.String()
}

// TableIVRow is one model's timing row.
type TableIVRow struct {
	// BaselineSec, PlainSec and InterleavedSec are simulated times.
	BaselineSec, PlainSec, InterleavedSec float64
	// PlainPct and InterleavedPct are the overheads.
	PlainPct, InterleavedPct float64
}

// TableIVResult reproduces Table IV: time overhead of RADAR on the
// full-size models (memsim, the gem5 substitute).
type TableIVResult struct {
	// Rows maps model table name to its timing row.
	Rows map[string]TableIVRow
}

// TableIV prices RADAR (G=8 for ResNet-20, G=512 for ResNet-18) on the
// full-size shape tables.
func TableIV() TableIVResult {
	cm := memsim.DefaultCostModel()
	res := TableIVResult{Rows: map[string]TableIVRow{}}
	for _, c := range deployments() {
		plain := cm.SimulateRADAR(c.tab, memsim.RADARConfig{G: c.g, SigBits: 2})
		inter := cm.SimulateRADAR(c.tab, memsim.RADARConfig{G: c.g, Interleave: true, SigBits: 2})
		res.Rows[c.tab.Model] = TableIVRow{
			BaselineSec:    plain.BaselineSec,
			PlainSec:       plain.TotalSec,
			InterleavedSec: inter.TotalSec,
			PlainPct:       plain.OverheadPercent(),
			InterleavedPct: inter.OverheadPercent(),
		}
	}
	return res
}

// Render prints the Table IV layout.
func (r TableIVResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Table IV: Time overhead of RADAR (simulated; interleaved in brackets)\n")
	sb.WriteString(row("model", "original", "RADAR", "overhead") + "\n")
	for _, name := range []string{"resnet20-cifar", "resnet18-imagenet"} {
		w := r.Rows[name]
		sb.WriteString(row(name,
			fmt.Sprintf("%.4fs", w.BaselineSec),
			fmt.Sprintf("%.4fs (%.4fs)", w.PlainSec, w.InterleavedSec),
			fmt.Sprintf("%.2f%% (%.2f%%)", w.PlainPct, w.InterleavedPct)) + "\n")
	}
	return sb.String()
}

// TableVRow compares one scheme on one model.
type TableVRow struct {
	// TotalSec is inference + detection; DeltaSec is detection only.
	TotalSec, DeltaSec float64
	// StorageKB is the check-bit storage.
	StorageKB float64
}

// TableVResult reproduces Table V: overhead comparison with CRC.
type TableVResult struct {
	// Rows maps "scheme/model" to the comparison row.
	Rows map[string]TableVRow
}

// TableV prices RADAR versus CRC on the full-size models, including the
// storage cost of each code (CRC-7 for G=8, CRC-13 for G=512; CRC-10 is
// the MSB-only option priced in the discussion).
func TableV() TableVResult {
	cm := memsim.DefaultCostModel()
	res := TableVResult{Rows: map[string]TableVRow{}}

	crcStorageKB := func(weights []int, g, bits int) float64 {
		groups := 0
		for _, l := range weights {
			groups += (l + g - 1) / g
		}
		return float64(groups*bits) / 8 / 1024
	}

	// CRC-7 for G = 8, CRC-13 for G = 512.
	crcs := []ecc.CRC{ecc.CRC7, ecc.CRC13}
	for i, c := range deployments() {
		w := layerWeights(c.tab)
		radar := cm.SimulateRADAR(c.tab, memsim.RADARConfig{G: c.g, Interleave: true, SigBits: 2})
		res.Rows["RADAR/"+c.tab.Model] = TableVRow{
			TotalSec:  radar.TotalSec,
			DeltaSec:  radar.DetectionSec,
			StorageKB: core.StorageForWeights(w, c.g, 2, true).SignatureKB(),
		}
		crc := cm.SimulateCRC(c.tab, c.g)
		res.Rows[crcs[i].Name()+"/"+c.tab.Model] = TableVRow{
			TotalSec:  crc.TotalSec,
			DeltaSec:  crc.DetectionSec,
			StorageKB: crcStorageKB(w, c.g, crcs[i].Width),
		}
	}
	// The MSB-only CRC-10 option for ResNet-18 (discussion in §VII.B).
	r18 := deployments()[1]
	crc10 := cm.SimulateCRC(r18.tab, r18.g)
	res.Rows["CRC-10/resnet18-imagenet"] = TableVRow{
		TotalSec:  crc10.TotalSec,
		DeltaSec:  crc10.DetectionSec,
		StorageKB: crcStorageKB(layerWeights(r18.tab), r18.g, ecc.CRC10.Width),
	}
	return res
}

// Render prints the Table V layout.
func (r TableVResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Table V: Overhead comparison with CRC techniques (simulated)\n")
	sb.WriteString(row("scheme/model", "time", "Δ", "storage") + "\n")
	order := []string{
		"CRC-7/resnet20-cifar", "RADAR/resnet20-cifar",
		"CRC-13/resnet18-imagenet", "CRC-10/resnet18-imagenet", "RADAR/resnet18-imagenet",
	}
	for _, k := range order {
		w, ok := r.Rows[k]
		if !ok {
			continue
		}
		sb.WriteString(row(k,
			fmt.Sprintf("%.4fs", w.TotalSec),
			fmt.Sprintf("%.4fs", w.DeltaSec),
			fmt.Sprintf("%.1fKB", w.StorageKB)) + "\n")
	}
	return sb.String()
}
