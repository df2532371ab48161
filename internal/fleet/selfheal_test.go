package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"radar/internal/serve"
)

// TestFleetHungReplicaBoundedFailover: a replica that accepts the
// connection and never answers — the canonical gray failure — costs the
// client at most one AttemptTimeout: the attempt deadline expires, the
// replica is ejected as slow, and the request fails over to the next
// owner within the same client call.
func TestFleetHungReplicaBoundedFailover(t *testing.T) {
	stubs := make([]*stubReplica, 3)
	urls := make([]string, 3)
	for i := range stubs {
		stubs[i] = newStubReplica(fmt.Sprintf("r%d", i), "m0")
		urls[i] = stubs[i].ts.URL
		t.Cleanup(stubs[i].ts.Close)
	}
	// No Start(): the hung replica's health endpoint still answers, so the
	// prober would readmit it and race the post-ejection assertions.
	const attempt = 200 * time.Millisecond
	f, err := New(Config{
		Replicas:       urls,
		AttemptTimeout: attempt,
		BackoffBase:    time.Millisecond,
		BackoffMax:     5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	owner := f.ring.Lookup("m0")
	victim := stubFor(t, stubs, owner)
	victim.hang.Store(true)

	start := time.Now()
	status, _ := doRead(t, "POST", ts.URL+"/v1/models/m0/infer", `{"input":[1]}`)
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("infer with hung owner → %d, want 200 via failover", status)
	}
	if elapsed >= 2*attempt {
		t.Fatalf("hung owner delayed the request %v, want at most one AttemptTimeout (%v) plus slack", elapsed, attempt)
	}
	if f.ring.Has(owner) {
		t.Fatal("hung replica still on the ring after an attempt timeout")
	}
	if v := f.met.attemptTimeouts.With(f.hostOf(owner)).Value(); v != 1 {
		t.Fatalf("radar_fleet_attempt_timeouts_total = %d, want exactly 1", v)
	}
	next := f.ring.Lookup("m0")
	if got := stubFor(t, stubs, next).inferCount("m0"); got != 1 {
		t.Fatalf("successor served %d requests, want 1", got)
	}
}

// TestFleetSoftDrainOnShedRate: a replica that keeps shedding 429s is
// proactively weighted out of new sync traffic — off the ring but still
// healthy — and readmitted once its shed window clears.
func TestFleetSoftDrainOnShedRate(t *testing.T) {
	f, stubs := newTestFleetCfg(t, 2, Config{
		ShedWindow:     800 * time.Millisecond,
		ShedMinSamples: 5,
		BackoffBase:    time.Millisecond,
		BackoffMax:     2 * time.Millisecond,
	}, "m0")
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	owner := f.ring.Lookup("m0")
	victim := stubFor(t, stubs, owner)
	victim.shed.Store(true)

	// Every request sheds on the owner and fails over; the client never
	// notices, and the owner's window fills with bad outcomes.
	for i := 0; i < 8; i++ {
		if status, _ := doRead(t, "POST", ts.URL+"/v1/models/m0/infer", `{"input":[1]}`); status != http.StatusOK {
			t.Fatalf("infer %d with shedding owner → %d, want 200", i, status)
		}
	}
	if f.ring.Has(owner) {
		t.Fatal("persistently shedding owner still on the ring")
	}
	if v := f.met.softDrains.With(f.hostOf(owner)).Value(); v != 1 {
		t.Fatalf("radar_fleet_soft_drains_total = %d, want 1", v)
	}
	// A soft drain is not an ejection: the replica reports healthy.
	status, body := doRead(t, "GET", ts.URL+"/v1/fleet", "")
	if status != http.StatusOK {
		t.Fatalf("fleet status → %d", status)
	}
	var st FleetStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	for _, rs := range st.Replicas {
		if rs.URL != owner {
			continue
		}
		if !rs.Healthy || !rs.SoftDrained || rs.InRing {
			t.Fatalf("soft-drained replica reports %+v, want healthy, soft_drained, out of ring", rs)
		}
	}

	// Overload ends; the drained replica sees no new sync traffic, its
	// window decays to empty, and the prober readmits it.
	victim.shed.Store(false)
	deadline := time.Now().Add(10 * time.Second)
	for !f.ring.Has(owner) {
		if time.Now().After(deadline) {
			t.Fatal("soft-drained replica never readmitted after its window cleared")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v := f.met.shedReadmits.With(f.hostOf(owner)).Value(); v != 1 {
		t.Fatalf("radar_fleet_shed_readmits_total = %d, want 1", v)
	}
}

// TestFleetReconcileOnReadmission: membership changes broadcast while a
// replica is ejected are repaired against it — missed adds applied,
// missed removes undone — before it re-enters the ring, without any
// operator action.
func TestFleetReconcileOnReadmission(t *testing.T) {
	f, stubs := newTestFleet(t, 2, "m0", "m1")
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	victim, peer := stubs[0], stubs[1]
	victim.broken.Store(true)
	deadline := time.Now().Add(10 * time.Second)
	for f.ring.Has(victim.ts.URL) {
		if time.Now().After(deadline) {
			t.Fatal("broken replica never ejected")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The fleet's hosted set moves while the victim is unreachable.
	if status, _ := doRead(t, "POST", ts.URL+"/v1/admin/models/extra", `{"source":"tiny"}`); status != http.StatusOK {
		t.Fatal("broadcast add failed")
	}
	if status, _ := doRead(t, "DELETE", ts.URL+"/v1/admin/models/m1", ""); status != http.StatusOK {
		t.Fatal("broadcast remove failed")
	}
	if victim.hostsModel("extra") {
		t.Fatal("broken victim applied the broadcast add")
	}
	if !peer.hostsModel("extra") || peer.hostsModel("m1") {
		t.Fatal("healthy peer did not apply the broadcast")
	}

	// Recovery: the prober repairs the drift before readmission.
	victim.broken.Store(false)
	for !f.ring.Has(victim.ts.URL) {
		if time.Now().After(deadline) {
			t.Fatal("recovered replica never readmitted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !victim.hostsModel("extra") {
		t.Fatal("readmitted replica is missing the model added while it was down")
	}
	if victim.hostsModel("m1") {
		t.Fatal("readmitted replica still hosts the model removed while it was down")
	}
	if v := f.met.reconcileRepairs.With(f.hostOf(victim.ts.URL)).Value(); v != 2 {
		t.Fatalf("radar_fleet_reconcile_repairs_total = %d, want 2 (one add, one remove)", v)
	}
}

// TestFleet5xxFailover: a 5xx from the ring owner is a gray verdict —
// the request replays on the next owner instead of relaying the error,
// and only when every candidate answers 5xx does the client see one. Sync
// inference and model info, both pure reads, fail over alike.
func TestFleet5xxFailover(t *testing.T) {
	stubs := make([]*stubReplica, 2)
	urls := make([]string, 2)
	for i := range stubs {
		stubs[i] = newStubReplica(fmt.Sprintf("r%d", i), "m0")
		urls[i] = stubs[i].ts.URL
		t.Cleanup(stubs[i].ts.Close)
	}
	// No Start(): broken replicas would also fail probes and get ejected,
	// making the 5xx path unreachable.
	f, err := New(Config{
		Replicas:    urls,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	owner := f.ring.Lookup("m0")
	victim := stubFor(t, stubs, owner)
	victim.broken.Store(true)

	status, _ := doRead(t, "POST", ts.URL+"/v1/models/m0/infer", `{"input":[1]}`)
	if status != http.StatusOK {
		t.Fatalf("infer with 5xx owner → %d, want 200 via failover", status)
	}
	if v := f.met.errFailovers.Value(); v != 1 {
		t.Fatalf("radar_fleet_err_failovers_total = %d, want 1", v)
	}
	status, body := doRead(t, "GET", ts.URL+"/v1/models/m0", "")
	if status != http.StatusOK || !strings.Contains(string(body), `"name":"m0"`) {
		t.Fatalf("model info with 5xx owner → %d %s, want 200 via failover", status, body)
	}
	if v := f.met.errFailovers.Value(); v != 2 {
		t.Fatalf("radar_fleet_err_failovers_total = %d after model info, want 2", v)
	}

	// Every candidate 5xxs: the backend verdict is relayed, not replaced
	// by a synthetic 502.
	for _, s := range stubs {
		s.broken.Store(true)
	}
	if status, _ := doRead(t, "POST", ts.URL+"/v1/models/m0/infer", `{"input":[1]}`); status != http.StatusInternalServerError {
		t.Fatalf("all-5xx infer → %d, want the relayed 500", status)
	}
	if status, _ := doRead(t, "GET", ts.URL+"/v1/models/m0", ""); status != http.StatusInternalServerError {
		t.Fatalf("all-5xx model info → %d, want the relayed 500", status)
	}
}

// TestFleetBodyCap: the replay buffer is bounded — a client body over
// MaxBodyBytes answers 413 instead of being held in router memory for
// the whole failover loop.
func TestFleetBodyCap(t *testing.T) {
	f, _ := newTestFleetCfg(t, 1, Config{MaxBodyBytes: 1024}, "m0")
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	big := `{"input":"` + strings.Repeat("x", 4096) + `"}`
	if status, _ := doRead(t, "POST", ts.URL+"/v1/models/m0/infer", big); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized infer body → %d, want 413", status)
	}
	if status, _ := doRead(t, "POST", ts.URL+"/v1/models/m0/jobs", big); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit body → %d, want 413", status)
	}
	if status, _ := doRead(t, "POST", ts.URL+"/v1/models/m0/infer", `{"input":[1]}`); status != http.StatusOK {
		t.Fatal("normal-sized body no longer flows")
	}
}

// TestFleetSubmitShedFailover: a 429 on job submit is the one
// provably-safe submit failover — the shedding replica answered without
// taking a slot — so the submit moves to the next owner and the job pins
// to the replica that actually minted it.
func TestFleetSubmitShedFailover(t *testing.T) {
	f, stubs := newTestFleetCfg(t, 3, Config{
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	}, "m0")
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	owner := f.ring.Lookup("m0")
	victim := stubFor(t, stubs, owner)
	victim.shed.Store(true)

	status, body := doRead(t, "POST", ts.URL+"/v1/models/m0/jobs", `{"input":[1]}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit with shedding owner → %d, want 202 via next owner", status)
	}
	var ref serve.JobRef
	if err := json.Unmarshal(body, &ref); err != nil {
		t.Fatal(err)
	}
	victim.mu.Lock()
	minted := len(victim.jobs)
	victim.mu.Unlock()
	if minted != 0 {
		t.Fatal("shedding owner minted the job anyway")
	}
	// The pin follows the minting replica, not the ring owner.
	if status, _ := doRead(t, "GET", ts.URL+ref.Location, ""); status != http.StatusOK {
		t.Fatalf("poll of failed-over job → %d, want 200", status)
	}

	// Every owner sheds → the held 429 verdict reaches the client.
	for _, s := range stubs {
		s.shed.Store(true)
	}
	if status, _ := doRead(t, "POST", ts.URL+"/v1/models/m0/jobs", `{"input":[1]}`); status != http.StatusTooManyRequests {
		t.Fatalf("all-shed submit → %d, want 429", status)
	}
}

// TestFleetConcurrentProbes: per-tick probes fan out concurrently, so
// three slow health endpoints cost a tick max(latency), not the sum —
// a failing replica is still ejected promptly.
func TestFleetConcurrentProbes(t *testing.T) {
	f, stubs := newTestFleetCfg(t, 3, Config{FailThreshold: 2}, "m0")
	for _, s := range stubs {
		s.probeSlow.Store(int64(200 * time.Millisecond))
	}
	victim := stubs[0]
	victim.broken.Store(true)

	start := time.Now()
	deadline := start.Add(5 * time.Second)
	for f.ring.Has(victim.ts.URL) {
		if time.Now().After(deadline) {
			t.Fatal("broken replica never ejected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Concurrent ticks cost ~200ms each → ejection after 2 failures lands
	// well under 900ms; serialized probes (3×200ms per tick) cannot get
	// there before ~1.2s.
	if elapsed := time.Since(start); elapsed > 900*time.Millisecond {
		t.Fatalf("ejection took %v with three 200ms probes per tick — probes look serialized", elapsed)
	}
}
