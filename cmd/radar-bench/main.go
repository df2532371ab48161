// Command radar-bench regenerates the paper's tables and figures (README.md
// §Experiments maps each id to its module) and prints them in the layout
// the paper uses. The -scale flag selects quick (test-sized) or full
// (paper-sized) statistics.
//
// Usage:
//
//	radar-bench [-exp all|table1|table2|table3|table4|table5|fig2|fig4|fig5|fig6|fig7|missrate|msb1|rowhammer|ablation-masking|ablation-sigbits|ablation-batch|runtime|recoveryscale|bigscale] [-scale quick|full] [-json path]
//
// Two experiments go beyond the paper. The bigscale experiment streams the
// full protect→scan→inject→recover pipeline over a synthetic mmap-backed
// store checkpoint (2 GiB at -scale full, 256 MiB at quick), reporting
// throughput, incremental-scan latency, and the peak-RSS to
// checkpoint-size ratio of the streaming reader. The recoveryscale
// experiment runs every internal/adversary campaign (oblivious,
// scrub-timer, below-threshold, sigstore) against the undefended,
// zeroing-recovery, and ECC-corrected deployments of the ResNet-20s model
// and reports detection/correction rates and top-1 accuracy-after-attack
// per cell. Both also emit a machine-readable JSON result, written only
// when -json names a path; -json is rejected unless -exp selects exactly
// one of the two. Throughput, latency and memory of the scan, serve and
// fleet paths are measured by the benchmark module (go run -C benchmark .).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"radar/internal/exp"
)

func main() {
	which := flag.String("exp", "all", "experiment id (index: README.md §Experiments)")
	scale := flag.String("scale", "full", "statistics scale: quick or full")
	jsonPath := flag.String("json", "", "write the machine-readable result here; needs -exp recoveryscale or -exp bigscale")
	flag.Parse()

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
	writeJSON := func(write func(string) error) {
		if *jsonPath == "" {
			return
		}
		if err := write(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
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
		{"runtime", func() string { return exp.Rowhammer(ctx).RenderRuntime() }},
		{"recoveryscale", func() string {
			r := exp.RecoveryScale(ctx)
			writeJSON(r.WriteJSON)
			return r.Render()
		}},
		{"bigscale", func() string {
			size := int64(2) << 30 // full: a 2 GiB synthetic checkpoint
			if *scale == "quick" {
				size = 256 << 20 // CI-sized capped run
			}
			r := exp.BigScale(size)
			writeJSON(r.WriteJSON)
			return r.Render()
		}},
	}

	var selected []runner
	var ids []string
	for _, r := range runners {
		ids = append(ids, r.id)
		if *which == "all" || *which == r.id {
			selected = append(selected, r)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid: all, %s\n", *which, strings.Join(ids, ", "))
		os.Exit(2)
	}
	if *jsonPath != "" && *which != "recoveryscale" && *which != "bigscale" {
		fmt.Fprintf(os.Stderr, "-json needs -exp recoveryscale or -exp bigscale, got -exp %s\n", *which)
		os.Exit(2)
	}
	for _, r := range selected {
		t0 := time.Now()
		out := r.run()
		fmt.Printf("=== %s (%v) ===\n%s\n", r.id, time.Since(t0).Round(time.Millisecond), out)
	}
}
