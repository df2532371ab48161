package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"radar/internal/obs"
	"radar/internal/qinfer"
)

// TestQuantilesNearestRank pins the nearest-rank definition: the rank is
// ceil(q·n), so p99 over ten samples is the maximum, not one order
// statistic short of it (the old int(q·(n-1)) truncation returned 9ms
// here).
func TestQuantilesNearestRank(t *testing.T) {
	samples := make([]time.Duration, 10)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond
	}
	got := quantiles(samples, 0.50, 0.90, 0.99, 1.0)
	want := []time.Duration{5 * time.Millisecond, 9 * time.Millisecond, 10 * time.Millisecond, 10 * time.Millisecond}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("quantile %d: got %v, want %v", i, got[i], want[i])
		}
	}
	if out := quantiles(nil, 0.5); out[0] != 0 {
		t.Errorf("empty samples: got %v, want 0", out[0])
	}
	if out := quantiles([]time.Duration{7 * time.Millisecond}, 0, 0.99); out[0] != 7*time.Millisecond || out[1] != 7*time.Millisecond {
		t.Errorf("single sample: got %v", out)
	}
}

// exposition returns the service's GET /v1/metrics body.
func exposition(svc *Service) string {
	var sb strings.Builder
	svc.WriteMetrics(&sb)
	return sb.String()
}

// metricNameRE is the repo's naming convention: radar_ prefix, lowercase
// snake case, with the unit suffix (_total, _seconds, _bytes) optional —
// gauges and histogram families carry none.
var metricNameRE = regexp.MustCompile(`^radar_[a-z0-9]+(_[a-z0-9]+)*(_total|_seconds|_bytes)?$`)

// TestMetricNamingLint walks every family the service registers and
// rejects names outside the convention before they ship to a scraper.
func TestMetricNamingLint(t *testing.T) {
	svc, _, _ := openTiny(t, 1, []ModelOption{WithScrub(0)})
	defer svc.Close()
	names := svc.obs.Names()
	if len(names) == 0 {
		t.Fatal("service registered no metric families")
	}
	for _, name := range names {
		if !metricNameRE.MatchString(name) {
			t.Errorf("metric family %q violates the radar_ naming convention", name)
		}
	}
	// The recovery-split and adversary families are load-bearing for the
	// smoke tooling; their absence is a wiring bug, not a style issue.
	have := make(map[string]bool, len(names))
	for _, name := range names {
		have[name] = true
	}
	for _, want := range []string{
		"radar_groups_corrected_total",
		"radar_groups_zeroed_total",
		"radar_adversary_flips_total",
		"radar_verify_scans_total",
		"radar_verify_seconds_total",
		"radar_queue_seconds_total",
		"radar_exposure_window_seconds",
	} {
		if !have[want] {
			t.Errorf("metric family %q is not registered", want)
		}
	}
	if have["radar_verify_hits_total"] {
		t.Error("radar_verify_hits_total is still registered; nothing is cached, so nothing can hit")
	}
}

// TestHTTPMetricsAndTraces drives the two observability endpoints over the
// wire: /v1/metrics answers the Prometheus content type with live series,
// and /v1/debug/traces returns JSON stage timings for requests that
// carried an X-Request-Id through the batch pipeline.
func TestHTTPMetricsAndTraces(t *testing.T) {
	svc, b, _ := openTiny(t, 1, []ModelOption{WithScrub(0)})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	x, _ := b[0].Test.Batch(0, 1)
	body := tinyBody(t, sample(x, 0))

	resp, err := http.Post(ts.URL+"/v1/models/m0/infer", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup infer: %d", resp.StatusCode)
	}
	if resp.Header.Get(RequestIDHeader) == "" {
		t.Fatal("infer response carries no X-Request-Id")
	}

	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics → %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ExpositionContentType {
		t.Fatalf("metrics content type %q, want %q", ct, obs.ExpositionContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`radar_requests_total{model="m0"} 1`,
		`# TYPE radar_request_latency_seconds histogram`,
		`radar_request_latency_seconds_bucket{model="m0",le="+Inf"} 1`,
		`radar_queue_depth{model="m0"}`,
		`radar_exposure_window_seconds{model="m0"}`,
		`radar_gemm_kernel_info{kernel="` + qinfer.GEMMKernel() + `"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// One process runs one kernel: exactly one series, whatever it hosts.
	if n := strings.Count(text, "radar_gemm_kernel_info{"); n != 1 {
		t.Errorf("exposition has %d radar_gemm_kernel_info series, want 1", n)
	}

	resp, err = http.Get(ts.URL + "/v1/debug/traces?n=8")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/traces → %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("traces content type %q, want application/json", ct)
	}
	var traces TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if traces.Count != 1 || len(traces.Traces) != 1 {
		t.Fatalf("traces response: %+v", traces)
	}
	tr := traces.Traces[0]
	if tr.ID == "" || tr.Model != "m0" {
		t.Fatalf("trace identity: %+v", tr)
	}
	stages := make(map[string]bool, len(tr.Stages))
	for _, st := range tr.Stages {
		stages[st.Name] = true
		if st.Name == "verify" && st.Ms <= 0 {
			t.Errorf("verify stage took %v ms: the pass's fetch steps were not timed", st.Ms)
		}
	}
	for _, want := range []string{"queue", "batch", "verify", "forward"} {
		if !stages[want] {
			t.Errorf("trace missing stage %q (have %v)", want, tr.Stages)
		}
	}

	// Bad n → 400.
	resp, err = http.Get(ts.URL + "/v1/debug/traces?n=zero")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n → %d, want 400", resp.StatusCode)
	}
}
