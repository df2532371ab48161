package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"radar/internal/serve"
)

// metricNameRE mirrors the serve-side lint: radar_ prefix, lowercase snake
// case, optional unit suffix.
var metricNameRE = regexp.MustCompile(`^radar_[a-z0-9]+(_[a-z0-9]+)*(_total|_seconds|_bytes)?$`)

// TestFleetMetricNamingLint rejects router family names outside the
// convention before they ship to a scraper.
func TestFleetMetricNamingLint(t *testing.T) {
	f, _ := newTestFleet(t, 2, "m0")
	names := f.obs.Names()
	if len(names) == 0 {
		t.Fatal("router registered no metric families")
	}
	for _, name := range names {
		if !metricNameRE.MatchString(name) {
			t.Errorf("metric family %q violates the radar_ naming convention", name)
		}
	}
}

// TestFleetAggregatedMetrics: the router's /v1/metrics carries its own
// routing series plus every replica's exposition re-emitted under a
// replica="host:port" label — labelled samples get the tag prepended,
// unlabelled ones get a fresh label set.
func TestFleetAggregatedMetrics(t *testing.T) {
	f, stubs := newTestFleet(t, 2, "m0")
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	if status, _ := doRead(t, "POST", ts.URL+"/v1/models/m0/infer", `{"input":[1]}`); status != http.StatusOK {
		t.Fatalf("warmup infer → %d", status)
	}

	status, body := doRead(t, "GET", ts.URL+"/v1/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/metrics → %d", status)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE radar_fleet_requests_total counter",
		`radar_fleet_requests_total{route="POST /v1/models/{model}/infer"} 1`,
		"# TYPE radar_fleet_replica_up gauge",
		"# TYPE radar_requests_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("router exposition missing %q", want)
		}
	}
	for _, s := range stubs {
		host := strings.TrimPrefix(s.ts.URL, "http://")
		if !strings.Contains(text, `radar_requests_total{replica="`+host+`",model="m0"}`) {
			t.Errorf("no replica-labelled re-export for %s", host)
		}
		if !strings.Contains(text, `radar_stub_uptime_seconds{replica="`+host+`"} 1`) {
			t.Errorf("unlabelled replica sample not tagged for %s", host)
		}
	}
}

// TestFleetMetricsHungReplica: a replica that accepts the scrape and
// never answers costs the router's GET /v1/metrics one AttemptTimeout, not
// the whole scrape — the router's own series and the healthy replicas'
// still arrive, and the stalled replica counts one scrape error.
func TestFleetMetricsHungReplica(t *testing.T) {
	const attempt = 200 * time.Millisecond
	f, stubs := newTestFleetCfg(t, 3, Config{AttemptTimeout: attempt}, "m0")
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()
	victim := stubs[0]
	victim.hang.Store(true)

	client := &http.Client{Timeout: 5 * time.Second}
	start := time.Now()
	resp, err := client.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatalf("scrape with a hung replica: %v after %v", err, time.Since(start))
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hung replica held the scrape %v, want about one AttemptTimeout (%v)", elapsed, attempt)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics → %d", resp.StatusCode)
	}
	text := string(body)
	if !strings.Contains(text, "# TYPE radar_fleet_replica_up gauge") {
		t.Error("router's own series missing from the scrape")
	}
	for _, s := range stubs[1:] {
		host := strings.TrimPrefix(s.ts.URL, "http://")
		if !strings.Contains(text, `radar_stub_uptime_seconds{replica="`+host+`"} 1`) {
			t.Errorf("healthy replica %s missing from the scrape", host)
		}
	}
	host := strings.TrimPrefix(victim.ts.URL, "http://")
	if v := f.met.scrapeErrors.With(host).Value(); v != 1 {
		t.Fatalf("radar_fleet_scrape_errors_total{replica=%q} = %d, want 1", host, v)
	}
}

// TestFleetMergedTraces: the router's /v1/debug/traces fans out, tags each
// trace with its replica host, and answers one merged JSON document.
func TestFleetMergedTraces(t *testing.T) {
	f, _ := newTestFleet(t, 2, "m0")
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	status, body := doRead(t, "GET", ts.URL+"/v1/debug/traces?n=5", "")
	if status != http.StatusOK {
		t.Fatalf("GET /v1/debug/traces → %d", status)
	}
	var merged serve.TracesResponse
	if err := json.Unmarshal(body, &merged); err != nil {
		t.Fatal(err)
	}
	if merged.Count != 2 {
		t.Fatalf("merged %d traces, want 2: %+v", merged.Count, merged)
	}
	for _, tr := range merged.Traces {
		if tr.Replica == "" {
			t.Errorf("trace %s carries no replica tag", tr.ID)
		}
		if len(tr.Stages) == 0 || tr.Stages[0].Name != "queue" {
			t.Errorf("trace %s lost its stages: %+v", tr.ID, tr.Stages)
		}
	}

	if status, _ := doRead(t, "GET", ts.URL+"/v1/debug/traces?n=bad", ""); status != http.StatusBadRequest {
		t.Fatalf("bad n → %d, want 400", status)
	}
}

// TestFleetShedFailover: a 429 queue-full shed from the ring owner moves
// the sync request to the next owner instead of bouncing the overload back
// to the client; only when every candidate sheds does the client see the
// held 429 with its Retry-After.
func TestFleetShedFailover(t *testing.T) {
	f, stubs := newTestFleet(t, 3, "m0")
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	owner := stubFor(t, stubs, f.ring.Lookup("m0"))
	owner.shed.Store(true)

	status, _ := doRead(t, "POST", ts.URL+"/v1/models/m0/infer", `{"input":[1]}`)
	if status != http.StatusOK {
		t.Fatalf("infer with shedding owner → %d, want 200 via next owner", status)
	}
	if got := owner.inferCount("m0"); got != 0 {
		t.Fatalf("shedding owner answered %d requests", got)
	}
	total := 0
	for _, s := range stubs {
		total += s.inferCount("m0")
	}
	if total != 1 {
		t.Fatalf("request answered %d times across the fleet, want 1", total)
	}
	if v := f.met.shedFailovers.Value(); v != 1 {
		t.Fatalf("radar_fleet_shed_failover_total = %d, want 1", v)
	}

	// Everyone sheds → the client gets the held 429, Retry-After intact.
	for _, s := range stubs {
		s.shed.Store(true)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/models/m0/infer", strings.NewReader(`{"input":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("all-shed infer → %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("relayed 429 lost its Retry-After")
	}
}
