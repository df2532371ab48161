// Command benchmark is the one benchmark for the whole RADAR stack. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	go run -C benchmark . --workload scan-heap --seed 1 --seconds 24 --trace 0
//
// runs one workload and prints, as the last line of standard output, one
// JSON object {correct, attempted, failed, metrics}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Without --workload,
//
//	go run -C benchmark . -seed 1 -out out/result.json -trace-out out/trace.json
//
// runs every workload, measured and then traced, each in its own child
// process, and writes the combined result file;
//
//	go run -C benchmark . -compare A.json B.json
//
// holds result file B against A under BENCHMARK.json's bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// summary is the driver's contract: the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]valueOfUnit `json:"metrics"`
}

type valueOfUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadPair is one workload's entry in the combined result file.
type workloadPair struct {
	Measured *result `json:"measured"`
	Traced   *result `json:"traced"`
}

// resultFile is what the all-workloads command writes with -out.
type resultFile struct {
	Seed      int64                    `json:"seed"`
	Seconds   float64                  `json:"seconds"`
	Scale     float64                  `json:"scale"`
	Env       envBlock                 `json:"env"`
	Workloads map[string]*workloadPair `json:"workloads"`
}

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload (default: all four, each in a child process)")
		seed     = flag.Int64("seed", 1, "drives flip addresses, input selection and schedule jitter")
		seconds  = flag.Float64("seconds", defaultSeconds, "measured seconds of one workload run")
		scale    = flag.Float64("scale", 1, "multiplies -seconds")
		traced   = flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
		out      = flag.String("out", "", "write the full result (JSON) here")
		traceOut = flag.String("trace-out", "", "write the traced run's spans (JSON) here")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	)
	flag.Parse()
	switch {
	case *compare:
		os.Exit(compareFiles(flag.Args(), os.Stdout))
	case *name == "":
		os.Exit(runAll(*seed, *seconds, *scale, *out, *traceOut))
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, tr, err := runOne(w, *seed, *seconds**scale, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	res.report(os.Stdout, defs)
	if err := writeOutputs(res, tr, *out, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	sum := summary{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]valueOfUnit{}}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		sum.Metrics[d.Name] = valueOfUnit{Value: m.Value, Unit: m.Unit}
	}
	line, _ := json.Marshal(sum)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func runOne(w *workload, seed int64, seconds float64, traced bool) (*result, *tracer, error) {
	if !traced {
		res, err := runMeasured(w, seed, seconds)
		return res, nil, err
	}
	tr := newTracer()
	res, err := runTraced(w, seed, seconds, tr)
	return res, tr, err
}

func writeOutputs(res *result, tr *tracer, out, traceOut string) error {
	if out != "" {
		raw, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, raw, 0o644); err != nil {
			return err
		}
	}
	if traceOut != "" && tr != nil {
		return tr.write(traceOut)
	}
	return nil
}

// runAll runs each workload twice — measured, then traced — each run in its
// own child process, so peak RSS, GC state and goroutines of one workload
// never reach the next.
func runAll(seed int64, seconds, scale float64, out, traceOut string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	dir, err := scratchDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	file := resultFile{Seed: seed, Seconds: seconds, Scale: scale, Env: readEnv(), Workloads: map[string]*workloadPair{}}
	spans := map[string]json.RawMessage{}
	code := 0
	start := time.Now()
	for _, w := range workloads {
		pair := &workloadPair{}
		file.Workloads[w.Name] = pair
		for _, traced := range []int{0, 1} {
			resPath := filepath.Join(dir, fmt.Sprintf("%s-%d.json", w.Name, traced))
			spanPath := filepath.Join(dir, w.Name+"-spans.json")
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-scale", fmt.Sprint(scale),
				"-trace", fmt.Sprint(traced), "-out", resPath, "-trace-out", spanPath)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d): %v\n", w.Name, traced, err)
				code = 1
			}
			var res result
			if raw, err := os.ReadFile(resPath); err == nil && json.Unmarshal(raw, &res) == nil {
				if traced == 1 {
					pair.Traced = &res
				} else {
					pair.Measured = &res
				}
			}
			if raw, err := os.ReadFile(spanPath); err == nil && traced == 1 {
				spans[w.Name] = raw
			}
		}
	}
	fmt.Printf("all workloads: %.0f s wall, exit %d\n", time.Since(start).Seconds(), code)
	if out != "" {
		if raw, err := json.MarshalIndent(file, "", " "); err != nil || os.WriteFile(out, raw, 0o644) != nil {
			fmt.Fprintln(os.Stderr, "benchmark: cannot write", out)
			code = 1
		}
	}
	if traceOut != "" {
		if raw, err := json.Marshal(spans); err != nil || os.WriteFile(traceOut, raw, 0o644) != nil {
			fmt.Fprintln(os.Stderr, "benchmark: cannot write", traceOut)
			code = 1
		}
	}
	return code
}
