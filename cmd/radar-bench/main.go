// Command radar-bench regenerates the paper's tables and figures (see
// DESIGN.md §3 for the experiment index) and prints them in the layout the
// paper uses. The -scale flag selects quick (test-sized) or full
// (paper-sized) statistics.
//
// Usage:
//
//	radar-bench [-exp all|table1|table2|table3|table4|table5|fig2|fig4|fig5|fig6|fig7|missrate|msb1|rowhammer|ablation-*|scanscale|servescale|fleetscale|recoveryscale|bigscale] [-scale quick|full] [-json path]
//	radar-bench -gate -baseline DIR -fresh DIR [-fresh DIR ...] [-max-drop 10]
//
// The scanscale experiment sweeps the parallel scan engine's worker pool
// (1/2/4/GOMAXPROCS) over a full-scale ResNet-18 weight image and reports
// per-sweep throughput and speedup plus the single-thread old-vs-new
// checksum kernel comparison. The servescale experiment measures the
// protected inference server's requests/sec under a live bit-flip
// adversary with the scrubber and verified weight-fetch toggled. The
// fleetscale experiment boots three full services behind the radar-fleet
// consistent-hash router and measures routed throughput and availability
// through a mid-traffic replica kill and a rolling rekey. The bigscale
// experiment streams the full protect→scan→inject→recover pipeline over a
// synthetic mmap-backed store checkpoint (2 GiB at -scale full, 256 MiB at
// quick), reporting throughput, incremental-scan latency, and the peak-RSS
// to checkpoint-size ratio of the streaming reader. The recoveryscale
// experiment runs every internal/adversary campaign (oblivious,
// scrub-timer, below-threshold, sigstore) against the undefended,
// zeroing-recovery, and ECC-corrected deployments of the ResNet-20s model
// and reports detection/correction rates and top-1 accuracy-after-attack
// per cell. All five write machine-readable JSON artifacts —
// BENCH_scanscale.json, BENCH_servescale.json, BENCH_fleetscale.json,
// BENCH_bigscale.json, BENCH_recoveryscale.json — to per-experiment
// default paths, or to the -json path when set explicitly (meaningful only
// when running a single JSON-capable experiment).
//
// -gate compares the artifacts in -fresh against the committed baselines
// in -baseline and exits 1 when any tracked higher-is-better metric
// dropped more than -max-drop percent — the CI perf-regression gate.
// -fresh repeats: with several fresh directories (one per regeneration
// run) each metric is judged on its median across runs, so a single noisy
// run on a loaded CI host cannot flake the gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"radar/internal/exp"
)

// dirList collects a repeatable -fresh flag into a slice.
type dirList []string

func (d *dirList) String() string { return strings.Join(*d, ",") }

func (d *dirList) Set(v string) error {
	*d = append(*d, v)
	return nil
}

func main() {
	which := flag.String("exp", "all", "experiment id (see DESIGN.md per-experiment index)")
	scale := flag.String("scale", "full", "statistics scale: quick or full")
	jsonPath := flag.String("json", "", "output path for machine-readable results of JSON-capable experiments (scanscale, servescale, fleetscale); default BENCH_<exp>.json per experiment")
	gate := flag.Bool("gate", false, "perf-regression gate: compare -fresh artifacts against -baseline and exit 1 on regression")
	baselineDir := flag.String("baseline", ".", "gate: directory holding the committed baseline BENCH_*.json artifacts")
	var freshDirs dirList
	flag.Var(&freshDirs, "fresh", "gate: directory holding freshly generated BENCH_*.json artifacts (repeatable; with several, each metric is gated on its median across runs)")
	maxDrop := flag.Float64("max-drop", 10, "gate: tolerated drop in percent before a metric fails")
	flag.Parse()

	if *gate {
		if len(freshDirs) == 0 {
			fmt.Fprintln(os.Stderr, "-gate requires at least one -fresh DIR")
			os.Exit(2)
		}
		res, err := exp.GateArtifacts(*baselineDir, freshDirs, *maxDrop)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gate: %v\n", err)
			os.Exit(2)
		}
		fmt.Print(res.Render())
		if res.Regressed {
			os.Exit(1)
		}
		return
	}

	var opt exp.Options
	switch *scale {
	case "quick":
		opt = exp.Quick()
	case "full":
		opt = exp.Full()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	ctx := exp.NewContext(opt)

	type runner struct {
		id  string
		run func() string
	}
	var t3 *exp.TableIIIResult
	tableIII := func() exp.TableIIIResult {
		if t3 == nil {
			r := exp.TableIII(ctx)
			t3 = &r
		}
		return *t3
	}
	runners := []runner{
		{"table1", func() string { return exp.TableI(ctx).Render() }},
		{"table2", func() string { return exp.TableII(ctx).Render() }},
		{"fig2", func() string { return exp.Figure2(ctx).Render() }},
		{"fig4", func() string { return exp.Figure4(ctx).Render() }},
		{"missrate", func() string { return exp.MissRate(opt).Render() }},
		{"table3", func() string { return tableIII().Render() }},
		{"fig5", func() string { return exp.Figure5(tableIII()).Render() }},
		{"fig6", func() string { return exp.Figure6(ctx).Render() }},
		{"table4", func() string { return exp.TableIV().Render() }},
		{"table5", func() string { return exp.TableV().Render() }},
		{"fig7", func() string { return exp.Figure7(ctx).Render() }},
		{"msb1", func() string { return exp.MSB1(ctx).Render() }},
		{"rowhammer", func() string { return exp.Rowhammer(ctx).Render() }},
		{"ablation-masking", func() string { return exp.MaskingAblation(opt).Render() }},
		{"ablation-sigbits", func() string { return exp.SigBitsAblation(opt).Render() }},
		{"ablation-batch", func() string { return exp.BatchAmortization().Render() }},
		{"runtime", func() string { return exp.RuntimeDetection(ctx).Render() }},
		{"engine", func() string { return exp.EngineParity(ctx).Render() }},
		{"software", func() string { return exp.SoftwareOverhead().Render() }},
		{"scanscale", func() string {
			r := exp.ScanScaling()
			writeJSON(artifactPath(*jsonPath, "scanscale"), r.WriteJSON)
			return r.Render()
		}},
		{"servescale", func() string {
			r := exp.ServeScaling()
			writeJSON(artifactPath(*jsonPath, "servescale"), r.WriteJSON)
			return r.Render()
		}},
		{"fleetscale", func() string {
			r := exp.FleetScaling()
			writeJSON(artifactPath(*jsonPath, "fleetscale"), r.WriteJSON)
			return r.Render()
		}},
		{"recoveryscale", func() string {
			r := exp.RecoveryScale(ctx)
			writeJSON(artifactPath(*jsonPath, "recoveryscale"), r.WriteJSON)
			return r.Render()
		}},
		{"bigscale", func() string {
			size := int64(2) << 30 // full: a 2 GiB synthetic checkpoint
			if *scale == "quick" {
				size = 256 << 20 // CI-sized capped run
			}
			r := exp.BigScale(size)
			writeJSON(artifactPath(*jsonPath, "bigscale"), r.WriteJSON)
			return r.Render()
		}},
	}

	ran := 0
	for _, r := range runners {
		if *which != "all" && *which != r.id {
			continue
		}
		t0 := time.Now()
		out := r.run()
		fmt.Printf("=== %s (%v) ===\n%s\n", r.id, time.Since(t0).Round(time.Millisecond), out)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *which)
		os.Exit(2)
	}
}

// artifactPath resolves the JSON artifact path: the -json override when
// set, otherwise the experiment's BENCH_<exp>.json default.
func artifactPath(override, expID string) string {
	if override != "" {
		return override
	}
	return "BENCH_" + expID + ".json"
}

func writeJSON(path string, write func(string) error) {
	if err := write(path); err != nil {
		fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
	} else {
		fmt.Printf("wrote %s\n", path)
	}
}
