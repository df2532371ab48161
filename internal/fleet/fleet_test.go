package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"radar/internal/obs"
	"radar/internal/serve"
)

// stubReplica fakes the slice of radar-serve's /v1 surface the router
// touches, with counters so tests can assert where traffic landed.
type stubReplica struct {
	name string
	ts   *httptest.Server

	mu        sync.Mutex
	hosted    map[string]bool // live hosted set, mutated by admin add/remove
	infers    map[string]int  // model → count
	jobs      map[string]bool
	jobSeq    int
	rekeys    int
	scrubs    int
	adds      []string
	removes   []string
	broken    atomic.Bool  // answer 500 on everything (incl. admin) while set
	shed      atomic.Bool  // answer 429 on infer/submit while set (queue full)
	hang      atomic.Bool  // hold infer and metrics without answering while set (gray failure)
	probeSlow atomic.Int64 // ns of added latency on GET /v1/models
	garbled   atomic.Bool  // answer GET /v1/models 200 with a non-JSON body while set
}

func newStubReplica(name string, models ...string) *stubReplica {
	s := &stubReplica{
		name: name, infers: map[string]int{}, jobs: map[string]bool{},
		hosted: map[string]bool{},
	}
	for _, m := range models {
		s.hosted[m] = true
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		if d := s.probeSlow.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if s.broken.Load() {
			http.Error(w, "broken", http.StatusInternalServerError)
			return
		}
		if s.garbled.Load() {
			fmt.Fprint(w, "<html>not a listing</html>")
			return
		}
		var resp serve.ModelsResponse
		s.mu.Lock()
		hosted := make([]string, 0, len(s.hosted))
		for m := range s.hosted {
			hosted = append(hosted, m)
		}
		s.mu.Unlock()
		sort.Strings(hosted)
		for _, m := range hosted {
			resp.Models = append(resp.Models, serve.ModelInfo{Name: m, Healthy: true})
		}
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("GET /v1/models/{model}", func(w http.ResponseWriter, r *http.Request) {
		if s.broken.Load() {
			http.Error(w, "broken", http.StatusInternalServerError)
			return
		}
		m := r.PathValue("model")
		s.mu.Lock()
		ok := s.hosted[m]
		s.mu.Unlock()
		if !ok {
			http.Error(w, "unknown model", http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(serve.ModelInfo{Name: m, Healthy: true})
	})
	mux.HandleFunc("POST /v1/models/{model}/infer", func(w http.ResponseWriter, r *http.Request) {
		if s.hang.Load() {
			// Gray failure: the request is accepted and read, the answer
			// never comes. Consuming the body first matters — it arms the
			// server's background read, so the proxy abandoning the attempt
			// cancels this context and releases the handler.
			io.Copy(io.Discard, r.Body)
			<-r.Context().Done()
			return
		}
		if s.broken.Load() {
			http.Error(w, "broken", http.StatusInternalServerError)
			return
		}
		if s.shed.Load() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}
		m := r.PathValue("model")
		s.mu.Lock()
		ok := s.hosted[m]
		s.mu.Unlock()
		if !ok {
			http.Error(w, "unknown model", http.StatusNotFound)
			return
		}
		s.mu.Lock()
		s.infers[m]++
		s.mu.Unlock()
		fmt.Fprintf(w, `{"results":[{"class":1,"logits":[0,1]}]}`)
	})
	mux.HandleFunc("POST /v1/models/{model}/jobs", func(w http.ResponseWriter, r *http.Request) {
		if s.shed.Load() {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "queue full", http.StatusTooManyRequests)
			return
		}
		m := r.PathValue("model")
		s.mu.Lock()
		ok := s.hosted[m]
		s.mu.Unlock()
		if !ok {
			http.Error(w, "unknown model", http.StatusNotFound)
			return
		}
		s.mu.Lock()
		s.jobSeq++
		id := fmt.Sprintf("job-%s-%08x", name, s.jobSeq)
		s.jobs[id] = true
		s.mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.JobRef{
			ID: serve.JobID(id), Model: m, Location: "/v1/jobs/" + id,
		})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		ok := s.jobs[r.PathValue("id")]
		s.mu.Unlock()
		if !ok {
			http.Error(w, "unknown job", http.StatusNotFound)
			return
		}
		fmt.Fprintf(w, `{"id":%q,"state":"done","result":{"class":1}}`, r.PathValue("id"))
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		s.mu.Lock()
		ok := s.jobs[id]
		delete(s.jobs, id)
		s.mu.Unlock()
		if !ok {
			http.Error(w, "unknown job", http.StatusNotFound)
			return
		}
		fmt.Fprintf(w, `{"id":%q,"state":"cancelled"}`, id)
	})
	mux.HandleFunc("POST /v1/admin/rekey", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.rekeys++
		s.mu.Unlock()
		fmt.Fprintf(w, `{"results":[{"model":"all","rekeyed":true}]}`)
	})
	mux.HandleFunc("POST /v1/admin/scrub", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.scrubs++
		s.mu.Unlock()
		fmt.Fprintf(w, `{"results":[{"model":"all","flagged":0,"zeroed":0}]}`)
	})
	mux.HandleFunc("POST /v1/admin/models/{name}", func(w http.ResponseWriter, r *http.Request) {
		if s.broken.Load() {
			http.Error(w, "broken", http.StatusInternalServerError)
			return
		}
		s.mu.Lock()
		s.adds = append(s.adds, r.PathValue("name"))
		s.hosted[r.PathValue("name")] = true
		s.mu.Unlock()
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintf(w, `{"name":%q}`, r.PathValue("name"))
	})
	mux.HandleFunc("DELETE /v1/admin/models/{name}", func(w http.ResponseWriter, r *http.Request) {
		if s.broken.Load() {
			http.Error(w, "broken", http.StatusInternalServerError)
			return
		}
		s.mu.Lock()
		s.removes = append(s.removes, r.PathValue("name"))
		delete(s.hosted, r.PathValue("name"))
		s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		if s.hang.Load() {
			<-r.Context().Done()
			return
		}
		if s.broken.Load() {
			http.Error(w, "broken", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", obs.ExpositionContentType)
		fmt.Fprintf(w, "# HELP radar_requests_total Inference requests answered.\n")
		fmt.Fprintf(w, "# TYPE radar_requests_total counter\n")
		s.mu.Lock()
		for _, m := range models {
			fmt.Fprintf(w, "radar_requests_total{model=%q} %d\n", m, s.infers[m])
		}
		s.mu.Unlock()
		fmt.Fprintf(w, "# HELP radar_stub_uptime_seconds Stub liveness.\n")
		fmt.Fprintf(w, "# TYPE radar_stub_uptime_seconds gauge\n")
		fmt.Fprintf(w, "radar_stub_uptime_seconds 1\n")
	})
	mux.HandleFunc("GET /v1/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serve.NewTracesResponse([]obs.Trace{{
			ID: "req-" + name, Model: models[0], Start: time.Now(), TotalMs: 1.5,
			Stages: []obs.Stage{{Name: "queue", Ms: 0.1}, {Name: "forward", Ms: 1.4}},
		}}))
	})
	s.ts = httptest.NewServer(mux)
	return s
}

func (s *stubReplica) inferCount(model string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.infers[model]
}

func (s *stubReplica) hostsModel(model string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hosted[model]
}

// newTestFleet boots n stub replicas hosting the given models behind a
// router with test-friendly timings.
func newTestFleet(t *testing.T, n int, models ...string) (*Fleet, []*stubReplica) {
	return newTestFleetCfg(t, n, Config{}, models...)
}

// newTestFleetCfg is newTestFleet with config overrides: a zero
// HealthInterval gets the test-friendly 20ms, everything else is passed
// through (Replicas is always filled from the stubs).
func newTestFleetCfg(t *testing.T, n int, cfg Config, models ...string) (*Fleet, []*stubReplica) {
	t.Helper()
	stubs := make([]*stubReplica, n)
	urls := make([]string, n)
	for i := range stubs {
		stubs[i] = newStubReplica(fmt.Sprintf("r%d", i), models...)
		urls[i] = stubs[i].ts.URL
		t.Cleanup(stubs[i].ts.Close)
	}
	cfg.Replicas = urls
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 20 * time.Millisecond
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	t.Cleanup(f.Stop)
	return f, stubs
}

func stubFor(t *testing.T, stubs []*stubReplica, url string) *stubReplica {
	t.Helper()
	for _, s := range stubs {
		if s.ts.URL == url {
			return s
		}
	}
	t.Fatalf("no stub with URL %s", url)
	return nil
}

// doRead issues one request and returns the status plus drained body.
func doRead(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestFleetRoutesByRingOwner: every request for one model lands on its
// ring owner, and different models spread across replicas as the ring
// dictates.
func TestFleetRoutesByRingOwner(t *testing.T) {
	f, stubs := newTestFleet(t, 3, "m0", "m1", "m2")
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	const per = 5
	for _, model := range []string{"m0", "m1", "m2"} {
		for i := 0; i < per; i++ {
			status, _ := doRead(t, "POST", ts.URL+"/v1/models/"+model+"/infer", `{"input":[1]}`)
			if status != http.StatusOK {
				t.Fatalf("infer %s → %d", model, status)
			}
		}
		owner := f.ring.Lookup(model)
		own := stubFor(t, stubs, owner)
		if got := own.inferCount(model); got != per {
			t.Fatalf("owner of %s saw %d/%d requests", model, got, per)
		}
		for _, s := range stubs {
			if s != own && s.inferCount(model) != 0 {
				t.Fatalf("non-owner %s saw traffic for %s", s.name, model)
			}
		}
	}
}

// TestFleetJobStickiness: a job submitted through the fleet polls and
// cancels against the replica that minted it, and the pin is dropped on
// DELETE.
func TestFleetJobStickiness(t *testing.T) {
	f, stubs := newTestFleet(t, 3, "m0")
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	status, body := doRead(t, "POST", ts.URL+"/v1/models/m0/jobs", `{"input":[1]}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit → %d", status)
	}
	var ref serve.JobRef
	if err := json.Unmarshal(body, &ref); err != nil {
		t.Fatal(err)
	}
	owner := f.ring.Lookup("m0")
	own := stubFor(t, stubs, owner)
	own.mu.Lock()
	minted := own.jobs[string(ref.ID)]
	own.mu.Unlock()
	if !minted {
		t.Fatalf("job %s not minted by ring owner %s", ref.ID, own.name)
	}

	if status, _ := doRead(t, "GET", ts.URL+ref.Location, ""); status != http.StatusOK {
		t.Fatalf("sticky poll → %d", status)
	}
	status, body = doRead(t, "DELETE", ts.URL+ref.Location, "")
	if status != http.StatusOK || !strings.Contains(string(body), "cancelled") {
		t.Fatalf("sticky cancel → %d %s", status, body)
	}
	// The pin is gone: the fleet itself answers 404 now.
	if status, _ := doRead(t, "GET", ts.URL+ref.Location, ""); status != http.StatusNotFound {
		t.Fatalf("poll after cancel → %d, want 404", status)
	}
	if status, _ := doRead(t, "GET", ts.URL+"/v1/jobs/job-unknown-1", ""); status != http.StatusNotFound {
		t.Fatalf("unknown job → %d, want 404", status)
	}
}

// TestFleetJobRoutingBounded: polls route by the job ID's replica tag, so
// finished jobs leave nothing behind in the router — 20 jobs submitted and
// polled to done leave at most one routing entry per replica — and a
// replica that becomes unreachable answers 502 without losing its entry.
func TestFleetJobRoutingBounded(t *testing.T) {
	f, stubs := newTestFleet(t, 3, "m0", "m1", "m2")
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	var last serve.JobRef
	for i := 0; i < 20; i++ {
		status, body := doRead(t, "POST", ts.URL+fmt.Sprintf("/v1/models/m%d/jobs", i%3), `{"input":[1]}`)
		if status != http.StatusAccepted {
			t.Fatalf("submit %d → %d", i, status)
		}
		if err := json.Unmarshal(body, &last); err != nil {
			t.Fatal(err)
		}
		if status, body := doRead(t, "GET", ts.URL+last.Location, ""); status != http.StatusOK ||
			!strings.Contains(string(body), `"done"`) {
			t.Fatalf("poll %s → %d %s", last.ID, status, body)
		}
	}
	entries := 0
	f.jobs.Range(func(any, any) bool { entries++; return true })
	if entries > len(stubs) {
		t.Fatalf("router holds %d job-routing entries after 20 finished jobs, want ≤ %d", entries, len(stubs))
	}

	minter := stubFor(t, stubs, f.ring.Lookup(last.Model))
	minter.ts.CloseClientConnections()
	minter.ts.Close()
	if status, _ := doRead(t, "GET", ts.URL+last.Location, ""); status != http.StatusBadGateway {
		t.Fatalf("poll on an unreachable replica → %d, want 502", status)
	}
	if _, ok := f.jobs.Load(last.ID.Tag()); !ok {
		t.Fatal("an unreachable replica's routing entry was dropped")
	}
}

// TestFleetFailoverOnDeadReplica: killing a replica mid-fleet ejects it
// on first contact and replays the idempotent request against the next
// owner — the client sees 200, not 502.
func TestFleetFailoverOnDeadReplica(t *testing.T) {
	f, stubs := newTestFleet(t, 3, "m0")
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	owner := f.ring.Lookup("m0")
	victim := stubFor(t, stubs, owner)
	victim.ts.CloseClientConnections()
	victim.ts.Close()

	status, _ := doRead(t, "POST", ts.URL+"/v1/models/m0/infer", `{"input":[1]}`)
	if status != http.StatusOK {
		t.Fatalf("failover infer → %d, want 200", status)
	}
	if f.ring.Has(owner) {
		t.Fatal("dead replica still on the ring after transport failure")
	}
	next := f.ring.Lookup("m0")
	if next == owner {
		t.Fatal("model did not remap off the dead replica")
	}
	if got := stubFor(t, stubs, next).inferCount("m0"); got != 1 {
		t.Fatalf("successor served %d requests, want 1", got)
	}

	// The fleet status reflects the ejection.
	status, body := doRead(t, "GET", ts.URL+"/v1/fleet", "")
	if status != http.StatusOK {
		t.Fatalf("fleet status → %d", status)
	}
	var st FleetStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.InRing != 2 {
		t.Fatalf("fleet reports %d in-ring replicas, want 2", st.InRing)
	}
}

// TestFleetHealthEjectReadmit: a replica that starts failing probes is
// ejected after failThreshold of them, and readmitted when it recovers.
func TestFleetHealthEjectReadmit(t *testing.T) {
	f, stubs := newTestFleet(t, 2, "m0")
	victim := stubs[0]

	victim.broken.Store(true)
	deadline := time.Now().Add(10 * time.Second)
	for f.ring.Has(victim.ts.URL) {
		if time.Now().After(deadline) {
			t.Fatal("failing replica never ejected")
		}
		time.Sleep(5 * time.Millisecond)
	}

	victim.broken.Store(false)
	for !f.ring.Has(victim.ts.URL) {
		if time.Now().After(deadline) {
			t.Fatal("recovered replica never readmitted")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFleetMergedModels: the fleet listing names each model once with its
// ring owner.
func TestFleetMergedModels(t *testing.T) {
	f, _ := newTestFleet(t, 3, "m0", "m1")
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	status, body := doRead(t, "GET", ts.URL+"/v1/models", "")
	if status != http.StatusOK {
		t.Fatalf("models → %d", status)
	}
	var merged ModelsResponse
	if err := json.Unmarshal(body, &merged); err != nil {
		t.Fatal(err)
	}
	if len(merged.Models) != 2 {
		t.Fatalf("merged %d models, want 2: %+v", len(merged.Models), merged)
	}
	for _, m := range merged.Models {
		if want := f.ring.Lookup(m.Name); m.Owner != want {
			t.Fatalf("model %s annotated owner %s, ring says %s", m.Name, m.Owner, want)
		}
	}
}

// TestFleetBroadcastModelAdmin: hot add/remove fans out to every replica
// so hosted sets stay identical fleet-wide.
func TestFleetBroadcastModelAdmin(t *testing.T) {
	f, stubs := newTestFleet(t, 3, "m0")
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	status, body := doRead(t, "POST", ts.URL+"/v1/admin/models/extra", `{"source":"tiny"}`)
	if status != http.StatusOK {
		t.Fatalf("broadcast add → %d", status)
	}
	var resp AdminResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Op != "add-model" || len(resp.Replicas) != 3 {
		t.Fatalf("broadcast add response: %+v", resp)
	}
	for _, s := range stubs {
		s.mu.Lock()
		adds := append([]string(nil), s.adds...)
		s.mu.Unlock()
		if len(adds) != 1 || adds[0] != "extra" {
			t.Fatalf("replica %s saw adds %v", s.name, adds)
		}
	}

	if status, _ := doRead(t, "DELETE", ts.URL+"/v1/admin/models/extra", ""); status != http.StatusOK {
		t.Fatalf("broadcast remove → %d", status)
	}
	for _, s := range stubs {
		s.mu.Lock()
		removes := append([]string(nil), s.removes...)
		s.mu.Unlock()
		if len(removes) != 1 || removes[0] != "extra" {
			t.Fatalf("replica %s saw removes %v", s.name, removes)
		}
	}
}

// TestFleetRollingRekey: the fleet rekey hits every replica exactly once,
// reports per-replica results, and leaves the full ring restored.
func TestFleetRollingRekey(t *testing.T) {
	f, stubs := newTestFleet(t, 3, "m0")
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	status, body := doRead(t, "POST", ts.URL+"/v1/admin/rekey", `{}`)
	if status != http.StatusOK {
		t.Fatalf("rolling rekey → %d", status)
	}
	var resp AdminResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Op != "rolling-rekey" || len(resp.Replicas) != 3 {
		t.Fatalf("rekey response: %+v", resp)
	}
	for _, rep := range resp.Replicas {
		if rep.Status != http.StatusOK || rep.Err != "" {
			t.Fatalf("replica report: %+v", rep)
		}
	}
	for _, s := range stubs {
		s.mu.Lock()
		n := s.rekeys
		s.mu.Unlock()
		if n != 1 {
			t.Fatalf("replica %s rekeyed %d times, want 1", s.name, n)
		}
	}
	if got := len(f.ring.Members()); got != 3 {
		t.Fatalf("ring has %d members after rekey, want 3", got)
	}
}

// TestFleetScrubBroadcast: the fleet scrub reaches every replica.
func TestFleetScrubBroadcast(t *testing.T) {
	f, stubs := newTestFleet(t, 2, "m0")
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	if status, _ := doRead(t, "POST", ts.URL+"/v1/admin/scrub", `{"full":true}`); status != http.StatusOK {
		t.Fatalf("broadcast scrub failed: %d", status)
	}
	for _, s := range stubs {
		s.mu.Lock()
		n := s.scrubs
		s.mu.Unlock()
		if n != 1 {
			t.Fatalf("replica %s scrubbed %d times, want 1", s.name, n)
		}
	}
	_ = f
}

// TestFleetConfigValidation: bad configs fail fast.
func TestFleetConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty replica list accepted")
	}
	if _, err := New(Config{Replicas: []string{"not a url"}}); err == nil {
		t.Fatal("relative replica URL accepted")
	}
	if _, err := New(Config{Replicas: []string{"http://a:1", "http://a:1"}}); err == nil {
		t.Fatal("duplicate replicas accepted")
	}
	if _, err := New(Config{Replicas: []string{"http://a:1"}, HealthInterval: -time.Second}); err == nil {
		t.Fatal("negative health interval accepted")
	}
	if _, err := New(Config{Replicas: []string{"http://a:1"}, AttemptTimeout: -time.Second}); err == nil {
		t.Fatal("negative attempt timeout accepted")
	}
}

// TestFleetDefaultTimings pins the router's clock at its defaults, the
// configuration the benchmark's fleet-attack workload runs: every timing
// derives from HealthInterval.
func TestFleetDefaultTimings(t *testing.T) {
	f, err := New(Config{Replicas: []string{"http://a:1"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want time.Duration
	}{
		{"health interval", f.cfg.HealthInterval, time.Second},
		{"probe timeout", f.cfg.probeTimeout(), 2 * time.Second},
		{"rekey drain wait", f.cfg.drainWait(), 500 * time.Millisecond},
		{"shed window", f.cfg.shedWindow(), 10 * time.Second},
		{"shed bucket width", f.replicas["http://a:1"].window.width, 1250 * time.Millisecond},
		{"attempt timeout", f.cfg.AttemptTimeout, 10 * time.Second},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.got != c.want {
				t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
			}
		})
	}
}

// TestFleetClientCancelDoesNotEject: a client that hangs up mid-infer
// surfaces as a context error on the proxied request. That says nothing
// about replica health, so the owner must keep its ring slot — ejecting
// it (and then failing the remaining owners with the same dead context)
// would briefly empty the ring and 503 all other traffic.
func TestFleetClientCancelDoesNotEject(t *testing.T) {
	f, _ := newTestFleet(t, 3, "m0")
	h := f.Handler()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/models/m0/infer",
		strings.NewReader(`{"input":[1]}`)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(httptest.NewRecorder(), req)

	if got := len(f.ring.Members()); got != 3 {
		t.Fatalf("ring has %d members after client-canceled infer, want 3", got)
	}
	// The fleet still serves normally.
	rec := httptest.NewRecorder()
	req = httptest.NewRequest("POST", "/v1/models/m0/infer", strings.NewReader(`{"input":[1]}`))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("infer after canceled request → %d, want 200", rec.Code)
	}
}

// TestFleetCanceledPollKeepsJobPin: a poll the client abandons must not
// drop the sticky job pin — the job is still alive on its replica, and a
// later poll has to reach it.
func TestFleetCanceledPollKeepsJobPin(t *testing.T) {
	f, _ := newTestFleet(t, 3, "m0")
	h := f.Handler()

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/models/m0/jobs", strings.NewReader(`{"input":[1]}`))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit → %d", rec.Code)
	}
	var ref serve.JobRef
	if err := json.Unmarshal(rec.Body.Bytes(), &ref); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h.ServeHTTP(httptest.NewRecorder(),
		httptest.NewRequest("GET", "/v1/jobs/"+string(ref.ID), nil).WithContext(ctx))

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+string(ref.ID), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("poll after abandoned poll → %d, want 200 (sticky pin dropped)", rec.Code)
	}
}

// TestFleetModelsFanoutFailure: when the ring has members but none of
// them answers the listing fan-out, the client gets 502 — not a 200 with
// an empty model list that is indistinguishable from an empty fleet.
func TestFleetModelsFanoutFailure(t *testing.T) {
	stub := newStubReplica("r0", "m0")
	t.Cleanup(stub.ts.Close)
	// No Start(): the prober must not run, so the replica stays in-ring
	// and the 502 is attributable to the fan-out alone.
	f, err := New(Config{Replicas: []string{stub.ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	stub.broken.Store(true)

	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/models", nil))
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("models with all fan-out failed → %d, want 502", rec.Code)
	}
}
