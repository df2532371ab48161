// Package fleet is the horizontal scaling layer over internal/serve: an
// HTTP front-end that consistent-hashes model names onto a set of
// radar-serve replica base URLs and proxies the full /v1 surface.
//
// Topology: every replica hosts the same model set (radar-serve -model
// flags or the fleet's broadcast hot-add), and the ring decides which
// replica answers for which model. Sync inference and async job submits
// route by model name; job polls and cancels are routed by the ID's
// replica tag: every job ID carries its minting replica's instance tag
// (serve.JobID.Tag), and the router learns tag → replica from each
// accepted submit, so it holds one entry per replica instance, not one
// per job. GET /v1/models merges the listing across healthy replicas and
// annotates each model with its current owner.
//
// Health: a background prober hits each replica's GET /v1/models every
// HealthInterval; two consecutive failures eject the replica from the
// ring (its models remap to the next owners), a later success readmits
// it. A transport error during proxying ejects immediately — the prober
// readmits once the replica answers again. One rule decides membership:
// a replica is on the ring iff it is healthy, not admin-drained and not
// soft-drained (settleLocked).
//
// Admin: POST /v1/admin/rekey is a zero-downtime rolling rekey — each
// replica in turn is drained off the ring, waits half a HealthInterval
// for in-flight requests, rekeys, and is readmitted — and
// /v1/admin/models/{name} broadcasts hot add/remove to every replica so
// membership changes keep the hosted sets identical. GET /v1/fleet
// reports the router's view.
package fleet

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"radar/internal/obs"
)

// Config tunes a Fleet. HealthInterval is the router's one clock: a probe
// or drift repair times out after two intervals, a rolling rekey waits
// half an interval after draining each replica, and the shed window spans
// ten. The routing policy is fixed: 64 vnodes per replica, ejection after
// 2 consecutive probe failures, at most 3 failover replays with 10ms–500ms
// full-jitter backoff, and a soft drain past a 0.5 bad-outcome rate over
// at least 20 attempts. Client bodies are capped at serve.MaxBodyBytes.
type Config struct {
	// Replicas are the radar-serve base URLs (e.g. http://10.0.0.1:8080).
	// At least one is required.
	Replicas []string
	// HealthInterval is the probe period (default 1s; negative is an
	// error).
	HealthInterval time.Duration
	// AttemptTimeout bounds one proxied data-plane attempt — headers and
	// body — at min(client deadline, AttemptTimeout); the per-replica
	// fan-outs of GET /v1/metrics and /v1/debug/traces are attempts too.
	// An attempt that times out while the client's own context is still
	// live is a replica verdict: the replica is ejected as slow and the
	// request fails over, so a hung backend costs one bounded attempt
	// instead of the whole request. Default 10s; negative is an error.
	// Admin broadcasts (scrub, rekey) are exempt — they legitimately run
	// long.
	AttemptTimeout time.Duration
}

// The fixed routing policy (see Config).
const (
	vnodes         = 64
	failThreshold  = 2
	retryBudget    = 3
	backoffBase    = 10 * time.Millisecond
	backoffMax     = 500 * time.Millisecond
	shedRate       = 0.5
	shedMinSamples = 20
)

// probeTimeout bounds one health probe or drift repair.
func (c Config) probeTimeout() time.Duration { return 2 * c.HealthInterval }

// drainWait is how long a rolling rekey lets in-flight requests finish on
// a replica it just took off the ring.
func (c Config) drainWait() time.Duration { return c.HealthInterval / 2 }

// shedWindow is the span of each replica's outcome window.
func (c Config) shedWindow() time.Duration { return 10 * c.HealthInterval }

// replica is the router's view of one backend.
type replica struct {
	url  string
	host string // host:port, the replica label on scraped series

	// window tracks recent data-plane outcomes (sheds, attempt timeouts,
	// 5xx vs. successes) for the proactive soft-drain decision.
	window *shedWindow

	// probing guards against overlapping health probes: a replica whose
	// probe is still in flight skips the next tick instead of stacking.
	probing atomic.Bool

	mu       sync.Mutex
	healthy  bool
	draining bool // admin-held off the ring; prober must not readmit
	shedded  bool // soft-drained for persistent overload; prober readmits
	fails    int
	lastErr  string
}

// ReplicaStatus is one backend's entry in GET /v1/fleet.
type ReplicaStatus struct {
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining,omitempty"`
	// SoftDrained marks a replica weighted out of new sync traffic for a
	// persistently high shed/error rate; it rejoins when its window clears.
	SoftDrained bool   `json:"soft_drained,omitempty"`
	InRing      bool   `json:"in_ring"`
	LastErr     string `json:"last_error,omitempty"`
}

// Fleet routes /v1 traffic across radar-serve replicas. Build with New,
// then Start the health prober; Stop shuts the prober down (backends are
// not touched — they are independent processes).
type Fleet struct {
	cfg      Config
	ring     *Ring
	client   *http.Client
	replicas map[string]*replica // keyed by base URL
	order    []string            // configured order, for stable reporting

	// jobs routes polls and cancels: a job ID's replica tag
	// (serve.JobID.Tag) → the base URL of the replica that minted it, the
	// only one that can answer for the job. Learnt from accepted submits.
	jobs sync.Map

	// intent is the fleet-wide hosted-model intent accumulated from admin
	// broadcasts; readmitted replicas are diffed against it and repaired
	// before they re-enter the ring.
	intent modelIntent

	// rekeyMu serializes rolling rekeys; overlapping drains could empty
	// the ring.
	rekeyMu sync.Mutex

	// obs holds the router's own metric families (routing, health,
	// failover); met is the typed handle onto them. Replica series are not
	// mirrored here — the aggregated scrape re-emits them live.
	obs *obs.Registry
	met *fleetMetrics

	stop    chan struct{}
	wg      sync.WaitGroup
	started atomic.Bool
	stopped atomic.Bool
}

// New validates the config and builds the router. Every replica starts
// healthy and on the ring; the prober corrects that view within one
// interval of Start.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("fleet: at least one replica base URL is required")
	}
	if cfg.HealthInterval < 0 || cfg.AttemptTimeout < 0 {
		return nil, fmt.Errorf("fleet: health interval %v and attempt timeout %v must not be negative", cfg.HealthInterval, cfg.AttemptTimeout)
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = time.Second
	}
	if cfg.AttemptTimeout == 0 {
		cfg.AttemptTimeout = 10 * time.Second
	}
	f := &Fleet{
		cfg:      cfg,
		ring:     NewRing(vnodes),
		client:   &http.Client{},
		replicas: make(map[string]*replica, len(cfg.Replicas)),
		stop:     make(chan struct{}),
	}
	for _, raw := range cfg.Replicas {
		base := strings.TrimRight(raw, "/")
		u, err := url.Parse(base)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("fleet: replica %q is not an absolute URL", raw)
		}
		if _, dup := f.replicas[base]; dup {
			return nil, fmt.Errorf("fleet: duplicate replica %q", base)
		}
		f.replicas[base] = &replica{
			url: base, host: u.Host, healthy: true,
			window: newShedWindow(cfg.shedWindow()),
		}
		f.order = append(f.order, base)
		f.ring.Add(base)
	}
	f.obs = obs.NewRegistry()
	f.initMetrics(f.obs)
	return f, nil
}

// Start launches the health prober. Idempotent.
func (f *Fleet) Start() {
	if !f.started.CompareAndSwap(false, true) {
		return
	}
	f.wg.Add(1)
	go f.probeLoop()
}

// Stop shuts the prober down. Idempotent.
func (f *Fleet) Stop() {
	if !f.stopped.CompareAndSwap(false, true) {
		return
	}
	close(f.stop)
	f.wg.Wait()
}

// Ring exposes the live hash ring (read-mostly: Lookup/Owners/Members).
// Callers observing routing — experiments, tests — share the router's
// view; mutating it directly would fight the health prober.
func (f *Fleet) Ring() *Ring { return f.ring }

// statuses snapshots every replica in configured order.
func (f *Fleet) statuses() []ReplicaStatus {
	out := make([]ReplicaStatus, 0, len(f.order))
	for _, base := range f.order {
		r := f.replicas[base]
		r.mu.Lock()
		out = append(out, ReplicaStatus{
			URL:         r.url,
			Healthy:     r.healthy,
			Draining:    r.draining,
			SoftDrained: r.shedded,
			InRing:      f.ring.Has(r.url),
			LastErr:     r.lastErr,
		})
		r.mu.Unlock()
	}
	return out
}
