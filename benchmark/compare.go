package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchmarkJSON is the part of BENCHMARK.json that -compare applies.
type benchmarkJSON struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []metricJSON   `json:"end_to_end"`
	PerLayer   []metricJSON   `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

// loadBenchmarkJSON finds the contract beside or above the working
// directory: `go run -C benchmark .` runs in benchmark/, one level below it.
func loadBenchmarkJSON() (*benchmarkJSON, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var b benchmarkJSON
		if err := json.Unmarshal(raw, &b); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &b, nil
	}
	return nil, firstErr
}

// verdict holds B's reading of one (metric, workload) pair against A's.
//
//	regressed   B's median is worse than A's by more than the bound
//	unresolved  either side's recorded spread is wider than the bound, so
//	            the pair cannot be told from noise
//	ok          otherwise
func verdict(a, b reading, better string, bound float64) (string, float64) {
	if a.Value == 0 {
		return "unresolved", 0
	}
	worse := (b.Value - a.Value) / a.Value
	if better == "higher" {
		worse = -worse
	}
	switch {
	case a.Spread > bound || b.Spread > bound:
		return "unresolved", worse
	case worse > bound:
		return "regressed", worse
	}
	return "ok", worse
}

// readResultFiles reads one side of a comparison: a single result file, or
// a comma-separated set of back-to-back runs of one commit. A set is folded
// into one file whose readings are the medians across its runs; with three
// runs or more the spread recorded beside each is the run-to-run one, which
// is the spread the bound is about.
func readResultFiles(list string) (*resultFile, error) {
	var runs []*resultFile
	for _, path := range strings.Split(list, ",") {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, &f)
	}
	return foldRuns(runs), nil
}

func foldRuns(runs []*resultFile) *resultFile {
	out := runs[0]
	if len(runs) == 1 {
		return out
	}
	for name, pair := range out.Workloads {
		if pair.Measured == nil {
			continue
		}
		for metric, first := range pair.Measured.Metrics {
			var vals, spreads []float64
			for _, r := range runs {
				if p := r.Workloads[name]; p != nil && p.Measured != nil {
					vals = append(vals, p.Measured.Metrics[metric].Value)
					spreads = append(spreads, p.Measured.Metrics[metric].Spread)
				}
			}
			first.Value, first.N = median(vals), len(vals)
			if first.Spread = median(spreads); len(vals) >= 3 {
				first.Spread = spread(vals)
			}
			pair.Measured.Metrics[metric] = first
		}
	}
	return out
}

// compareFiles prints one row per (end-to-end metric, workload) and returns
// the exit code: 1 if any row regressed, 2 if the files cannot be compared.
func compareFiles(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(w, "usage: -compare A.json[,A2.json,...] B.json[,B2.json,...]")
		return 2
	}
	spec, err := loadBenchmarkJSON()
	if err != nil {
		fmt.Fprintln(w, "compare: BENCHMARK.json:", err)
		return 2
	}
	a, err := readResultFiles(args[0])
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	b, err := readResultFiles(args[1])
	if err != nil {
		fmt.Fprintln(w, "compare:", err)
		return 2
	}
	return compareResults(spec, a, b, w)
}

func compareResults(spec *benchmarkJSON, a, b *resultFile, w io.Writer) int {
	if a.Env.NProc != b.Env.NProc || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS {
		fmt.Fprintf(w, "compare: refusing: A ran on nproc=%d GOMAXPROCS=%d, B on nproc=%d GOMAXPROCS=%d\n",
			a.Env.NProc, a.Env.GOMAXPROCS, b.Env.NProc, b.Env.GOMAXPROCS)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-14s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	for _, wl := range spec.Workloads {
		pa, pb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if pa == nil || pb == nil || pa.Measured == nil || pb.Measured == nil {
			fmt.Fprintf(w, "%-14s missing from one of the files\n", wl.Name)
			code = max(code, 2)
			continue
		}
		for _, m := range spec.EndToEnd {
			ra, rb := pa.Measured.Metrics[m.Name], pb.Measured.Metrics[m.Name]
			v, worse := verdict(ra, rb, m.Better, m.Bound)
			if v == "regressed" {
				code = max(code, 1)
			}
			fmt.Fprintf(w, "%-14s %-18s %14.4f %14.4f %8.1f%% %6.0f%%  %s\n", wl.Name, m.Name, ra.Value, rb.Value, 100*worse, 100*m.Bound, v)
		}
	}
	return code
}
