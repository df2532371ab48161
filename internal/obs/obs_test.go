package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the exact text exposition for a small registry
// covering all three metric types, labels, and the histogram sample
// expansion — the format the smoke scripts' line-checkers parse.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	req := r.Counter("radar_requests_total", "Requests served.", "model")
	req.With("a").Add(3)
	req.With("b").Inc()
	depth := r.Gauge("radar_queue_depth", "Pending requests.", "model")
	depth.With("a").Set(2)
	r.Gauge("radar_uptime_ratio", "Fraction of time up.").Func(func() float64 { return 0.5 })
	lat := r.Histogram("radar_request_latency_seconds", "End-to-end latency.", []float64{0.01, 0.1}, "model")
	h := lat.With("a")
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.5)

	var sb strings.Builder
	n, err := r.WriteTo(&sb)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	want := `# HELP radar_requests_total Requests served.
# TYPE radar_requests_total counter
radar_requests_total{model="a"} 3
radar_requests_total{model="b"} 1
# HELP radar_queue_depth Pending requests.
# TYPE radar_queue_depth gauge
radar_queue_depth{model="a"} 2
# HELP radar_uptime_ratio Fraction of time up.
# TYPE radar_uptime_ratio gauge
radar_uptime_ratio 0.5
# HELP radar_request_latency_seconds End-to-end latency.
# TYPE radar_request_latency_seconds histogram
radar_request_latency_seconds_bucket{model="a",le="0.01"} 1
radar_request_latency_seconds_bucket{model="a",le="0.1"} 2
radar_request_latency_seconds_bucket{model="a",le="+Inf"} 3
radar_request_latency_seconds_sum{model="a"} 0.555
radar_request_latency_seconds_count{model="a"} 3
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if n != int64(len(want)) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, len(want))
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("radar_x_total", "x", "model")
	b := r.Counter("radar_x_total", "x", "model")
	a.With("m").Add(2)
	if got := b.With("m").Value(); got != 2 {
		t.Errorf("re-registered family not shared: got %d, want 2", got)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("conflicting re-registration did not panic")
		}
	}()
	r.Gauge("radar_x_total", "x", "model")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Errorf("invalid metric name did not panic")
		}
	}()
	r.Counter("radar-bad-name", "nope")
}

func TestPrune(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("radar_requests_total", "r", "model")
	c.With("a").Inc()
	c.With("b").Inc()
	g := r.Gauge("radar_fleet_replica_up", "u", "replica")
	g.With("h1").Set(1)
	r.Prune("model", "a")
	var sb strings.Builder
	r.WriteTo(&sb)
	out := sb.String()
	if strings.Contains(out, `model="a"`) {
		t.Errorf("pruned child still exposed:\n%s", out)
	}
	if !strings.Contains(out, `model="b"`) || !strings.Contains(out, `replica="h1"`) {
		t.Errorf("prune removed unrelated children:\n%s", out)
	}
}

// TestConcurrentScrape hammers counters, gauges, and histograms from many
// goroutines while other goroutines scrape — run under -race this proves
// the hot path and exposition are data-race free.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("radar_requests_total", "r", "model")
	g := r.Gauge("radar_queue_depth", "q", "model")
	h := r.Histogram("radar_request_latency_seconds", "l", []float64{0.001, 0.01, 0.1}, "model")
	models := []string{"a", "b", "c"}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				m := models[i%len(models)]
				c.With(m).Inc()
				g.With(m).Set(float64(i % 7))
				h.With(m).Observe(float64(i%100) / 1000)
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var sb strings.Builder
				if _, err := r.WriteTo(&sb); err != nil {
					t.Errorf("WriteTo: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	var sb strings.Builder
	r.WriteTo(&sb)
	if !strings.Contains(sb.String(), `radar_requests_total{model="a"}`) {
		t.Errorf("final scrape missing hammered series")
	}
}

func TestTraceRing(t *testing.T) {
	r := NewTraceRing(3)
	for i := 0; i < 5; i++ {
		r.Add(Trace{ID: string(rune('a' + i))})
	}
	got := r.Last(10)
	if len(got) != 3 || got[0].ID != "e" || got[1].ID != "d" || got[2].ID != "c" {
		t.Errorf("Last = %+v, want newest-first e,d,c", got)
	}
	if got := r.Last(1); len(got) != 1 || got[0].ID != "e" {
		t.Errorf("Last(1) = %+v, want just e", got)
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || a == b {
		t.Errorf("request ids not unique 16-hex: %q %q", a, b)
	}
}

// TestConflictingBucketsPanic: re-registering a histogram with different
// buckets must fail loudly, matching the conflicting-metadata behavior
// for type and label names — a silently shared family would put
// observations in unexpected buckets.
func TestConflictingBucketsPanic(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("radar_y_seconds", "y", []float64{0.1, 1, 10})
	// The same bounds in any order share the family (buckets are stored
	// sorted).
	b := r.Histogram("radar_y_seconds", "y", []float64{10, 0.1, 1})
	if a.fam != b.fam {
		t.Errorf("identical re-registration did not share the family")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("conflicting histogram buckets did not panic")
		}
	}()
	r.Histogram("radar_y_seconds", "y", []float64{0.5, 5})
}
