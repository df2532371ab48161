package fleet

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"radar/internal/chaos"
)

// TestFleetChaosStorm drives the router through a sustained gray-failure
// storm: every replica sits behind a fault-injecting chaos proxy mixing
// hangs, TCP resets and 5xx bursts, and the self-healing stack — attempt
// deadlines, jittered failover, fast ejection, probe readmission — must
// keep client-visible success at ≥99%.
func TestFleetChaosStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos storm is slow")
	}
	models := []string{"m0", "m1", "m2"}
	const n = 3
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		stub := newStubReplica(fmt.Sprintf("r%d", i), models...)
		t.Cleanup(stub.ts.Close)
		p, err := chaos.New(chaos.Config{
			Target: stub.ts.URL,
			Seed:   int64(i + 1),
			Mix: chaos.Mix{
				Hang:    0.02,
				Reset:   0.02,
				Err5xx:  0.02,
				HangFor: time.Second,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ps := httptest.NewServer(p.Handler())
		t.Cleanup(func() { p.Close(); ps.Close() })
		urls[i] = ps.URL
	}

	f, err := New(Config{
		Replicas:       urls,
		AttemptTimeout: 300 * time.Millisecond,
		HealthInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	t.Cleanup(f.Stop)
	ts := httptest.NewServer(f.Handler())
	defer ts.Close()

	const total = 300
	ok := 0
	for i := 0; i < total; i++ {
		status, _ := doRead(t, "POST", ts.URL+"/v1/models/"+models[i%len(models)]+"/infer", `{"input":[1]}`)
		if status == http.StatusOK {
			ok++
		}
	}
	rate := float64(ok) / total
	t.Logf("chaos storm: %d/%d ok (%.2f%%), retries=%d failovers=%d panic=%d",
		ok, total, 100*rate, f.met.retries.Value(), f.met.failovers.Value(), f.met.panicRoutes.Value())
	if rate < 0.99 {
		t.Fatalf("success rate %.2f%% under chaos, want ≥99%%", 100*rate)
	}
}
