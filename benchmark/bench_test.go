package main

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileIsAnObservedValue(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.95, 10}, {0.99, 10}, {0.1, 1}, {0, 1}, {1, 10}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// 2.5–5 ms was one histogram bucket in the old artifacts, and every p50
	// read its midpoint. A nearest-rank percentile cannot invent 3.75.
	if got := p50([]float64{2.6, 2.7, 4.9}); got != 2.7 {
		t.Errorf("p50 = %v, want the observed 2.7", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// == [3.5, 24.0, 160.0]
	q1, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q3 != 160 {
		t.Errorf("quartiles = %v, %v; Python gives 3.5, 160", q1, q3)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := spread([]float64{10, 10, 10, 10}); got != 0 {
		t.Errorf("spread of a constant = %v", got)
	}
}

func TestQuietestIgnoresADisturbance(t *testing.T) {
	var at, steady, disturbed []float64
	for i := 0; i < 500; i++ {
		at = append(at, float64(i)/100) // 5 s at 100/s: ten windows
		steady = append(steady, 3)
		v := 3.0
		if i >= 50 && i < 450 { // all but the first and the last window
			v = 300
		}
		disturbed = append(disturbed, v)
	}
	a := quietest(at, steady, latencyWindow, p95)
	b := quietest(at, disturbed, latencyWindow, p95)
	if a.Value != 3 || b.Value != 3 {
		t.Errorf("p95 = %v steady, %v with eight windows disturbed; want 3 and 3", a.Value, b.Value)
	}
	if b.Spread == 0 || b.N != 500 {
		t.Errorf("reading = %+v: the disturbance must show in the recorded spread", b)
	}
	// A slowdown that lasts the whole phase is not a disturbance: it must show.
	for i := range disturbed {
		disturbed[i] = 4
	}
	if c := quietest(at, disturbed, latencyWindow, p95); c.Value != 4 {
		t.Errorf("p95 = %v after a lasting slowdown, want 4", c.Value)
	}
	// A window with a few leftover samples is no window: it cannot be the
	// quietest.
	at, disturbed = append(at, 5.01, 5.02), append(disturbed, 1, 1)
	if d := quietest(at, disturbed, latencyWindow, p50); d.Value != 4 {
		t.Errorf("p50 = %v with a two-sample tail window, want 4", d.Value)
	}
}

func TestVerdict(t *testing.T) {
	r := func(v, s float64) reading { return reading{Value: v, Spread: s} }
	for _, c := range []struct {
		name   string
		a, b   reading
		better string
		bound  float64
		want   string
	}{
		{"lower is better, 5% slower", r(10, 0.01), r(10.5, 0.01), "lower", 0.10, "ok"},
		{"lower is better, 20% slower", r(10, 0.01), r(12, 0.01), "lower", 0.10, "regressed"},
		{"lower is better, faster", r(10, 0.01), r(5, 0.01), "lower", 0.10, "ok"},
		{"higher is better, 20% less", r(100, 0.01), r(80, 0.01), "higher", 0.10, "regressed"},
		{"higher is better, more", r(100, 0.01), r(130, 0.01), "higher", 0.10, "ok"},
		{"spread wider than the bound", r(10, 0.30), r(12, 0.01), "lower", 0.10, "unresolved"},
		{"spread wider than the bound on B", r(10, 0.01), r(10, 0.30), "lower", 0.10, "unresolved"},
	} {
		if got, _ := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func fileWith(nproc int, metric string, v, sp float64) *resultFile {
	return &resultFile{
		Env: envBlock{NProc: nproc, GOMAXPROCS: nproc},
		Workloads: map[string]*workloadPair{
			"scan-heap": {Measured: &result{Metrics: map[string]reading{metric: {Value: v, Spread: sp}}}},
		},
	}
}

func TestCompare(t *testing.T) {
	spec := &benchmarkJSON{
		Workloads: []workloadJSON{{Name: "scan-heap"}},
		EndToEnd:  []metricJSON{{Name: "scan_mbps", Unit: "MB/s", Better: "higher", Bound: 0.10}},
	}

	var out bytes.Buffer
	if code := compareResults(spec, fileWith(2, "scan_mbps", 3000, 0.02), fileWith(2, "scan_mbps", 2950, 0.02), &out); code != 0 || !strings.Contains(out.String(), "ok") {
		t.Errorf("equal runs: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(spec, fileWith(2, "scan_mbps", 3000, 0.02), fileWith(2, "scan_mbps", 2000, 0.02), &out); code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("a third slower: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareResults(spec, fileWith(2, "scan_mbps", 3000, 0.02), fileWith(1, "scan_mbps", 3000, 0.02), &out); code != 2 || !strings.Contains(out.String(), "refusing") {
		t.Errorf("different nproc: exit %d\n%s", code, out.String())
	}
}

func TestFoldRunsUsesRunToRunSpread(t *testing.T) {
	runs := []*resultFile{
		fileWith(2, "scan_mbps", 2900, 0.5), fileWith(2, "scan_mbps", 3000, 0.5), fileWith(2, "scan_mbps", 3100, 0.5),
	}
	m := foldRuns(runs).Workloads["scan-heap"].Measured.Metrics["scan_mbps"]
	if m.Value != 3000 || m.N != 3 {
		t.Errorf("folded reading %+v, want the median 3000 of 3 runs", m)
	}
	if m.Spread > 0.2 {
		t.Errorf("folded spread %v should be the run-to-run one, not the recorded 0.5", m.Spread)
	}
}

func TestVolleyPlanCoversTheScrubCycleEvenly(t *testing.T) {
	for _, c := range []struct {
		dur, every time.Duration
		targets    int
	}{
		{11 * time.Second, fleetVolleyEvery, 4},
		{3 * time.Second, companionVolleyEvery, 1},
		{0, companionVolleyEvery, 1},
	} {
		n, period := volleyPlan(c.dur, c.every, c.targets)
		if n < 1 || (c.dur > 0 && math.Abs(float64(period-c.every)) > 0.25*float64(c.every)) {
			t.Errorf("%v: %d volleys every %v, want about every %v", c, n, period, c.every)
		}
		// Each target sees every targets-th volley; its phases against the
		// cycle must all differ, and so be n/targets evenly spaced points.
		seen := map[int64]bool{}
		for i := 0; i < n; i += c.targets {
			phase := (time.Duration(i) * period) % scrubCycle
			seen[int64(phase.Round(100*time.Microsecond))] = true
		}
		if want := (n + c.targets - 1) / c.targets; len(seen) != want {
			t.Errorf("%v: %d distinct phases for a target, want %d", c, len(seen), want)
		}
	}
}

var nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRule = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkJSONMatchesTheProgram holds the contract file against the
// tables the program reports from: same names, units, directions and bounds.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	spec, err := loadBenchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	used := map[string]bool{}
	name := func(n string) {
		if !nameRule.MatchString(n) || used[n] {
			t.Errorf("name %q breaks the name rule or is used twice", n)
		}
		used[n] = true
	}
	for i, w := range spec.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q differs from the program's %q, or its why is not one short line", i, w.Name, workloads[i].Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts: %d/%d in BENCHMARK.json, %d/%d in the program", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, m := range spec.EndToEnd {
		name(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: %+v differs from the program's %+v", i, m, d)
		}
		if !unitRule.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q or bound %v outside the contract", m.Name, m.Unit, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range spec.PerLayer {
		name(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || !unitRule.MatchString(m.Unit) {
			t.Errorf("per-layer %d: %+v differs from the program's %+v", i, m, d)
		}
		if d.Moves == "" {
			t.Errorf("%s: no end-to-end metric written down for it to move", d.Name)
		}
	}
}

// TestEveryWorkloadAtSmokeScale runs each workload, measured and traced, at
// -scale 0.03: every gate must hold and exactly the metrics BENCHMARK.json
// lists must come out.
func TestEveryWorkloadAtSmokeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for about a second each")
	}
	const seconds = defaultSeconds * 0.03
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			shares := w.ScanShare
			for _, ph := range w.Phases {
				shares += ph.Share
			}
			if math.Abs(shares-1) > 1e-9 {
				t.Errorf("phase shares add up to %v, want 1", shares)
			}
			for traced, defs := range [][]metricDef{endToEnd, perLayer} {
				res, _, err := runOne(w, 7, seconds, traced == 1)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("traced=%d: correct=%v attempted=%d failed=%d gates=%+v notes=%v", traced, res.Correct, res.Attempted, res.Failed, res.Gates, res.Notes)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("traced=%d: %d metrics reported, want %d", traced, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("traced=%d: metric %s missing or malformed: %+v", traced, d.Name, m)
					}
					if traced == 0 && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
					}
				}
			}
		})
	}
}
