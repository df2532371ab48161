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
// Health: a background prober hits each replica's GET /v1/models on an
// interval; FailThreshold consecutive failures eject the replica from
// the ring (its models remap to the next owners), a later success
// readmits it. A transport error during proxying ejects immediately —
// the prober readmits once the replica answers again.
//
// Admin: POST /v1/admin/rekey is a zero-downtime rolling rekey — each
// replica in turn is drained off the ring, waits DrainWait for in-flight
// requests, rekeys, and is readmitted — and /v1/admin/models/{name}
// broadcasts hot add/remove to every replica so membership changes keep
// the hosted sets identical. GET /v1/fleet reports the router's view.
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

// Config tunes a Fleet.
type Config struct {
	// Replicas are the radar-serve base URLs (e.g. http://10.0.0.1:8080).
	// At least one is required.
	Replicas []string
	// VNodes is the ring's virtual-node count per replica (default 64).
	VNodes int
	// HealthInterval is the probe period (default 1s).
	HealthInterval time.Duration
	// HealthTimeout bounds one probe request (default 2s).
	HealthTimeout time.Duration
	// FailThreshold is how many consecutive probe failures eject a
	// replica (default 2). Proxy-side transport errors eject immediately.
	FailThreshold int
	// DrainWait is how long a rolling rekey waits after taking a replica
	// off the ring before rekeying it, letting in-flight requests finish
	// (default 500ms).
	DrainWait time.Duration
	// AttemptTimeout bounds one proxied data-plane attempt — headers and
	// body — at min(client deadline, AttemptTimeout); the per-replica
	// fan-outs of GET /v1/metrics and /v1/debug/traces are attempts too.
	// An attempt that
	// times out while the client's own context is still live is a replica
	// verdict: the replica is ejected as slow and the request fails over,
	// so a hung backend costs one bounded attempt instead of the whole
	// request. Default 10s; negative disables. Admin broadcasts (scrub,
	// rekey) are exempt — they legitimately run long.
	AttemptTimeout time.Duration
	// RetryBudget caps failover replays per request beyond the first
	// attempt (default 3). The ring's distinct-owner order already bounds
	// attempts at the replica count; the budget tightens that on large
	// fleets so one request cannot sweep every replica.
	RetryBudget int
	// BackoffBase / BackoffMax shape the full-jitter backoff slept
	// between failover attempts: attempt n waits rand(0, min(BackoffMax,
	// BackoffBase<<n)). Defaults 10ms / 500ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// MaxBodyBytes caps the client request body the router buffers for
	// failover replay; beyond it the client gets 413 (default 8 MiB).
	MaxBodyBytes int64
	// ShedWindow is the span of the per-replica sliding window that
	// tracks shed/error outcomes (429s, attempt timeouts, 5xx) against
	// total attempts (default 10s). New rejects a window under 8ns: the
	// window is eight buckets of at least a nanosecond each.
	ShedWindow time.Duration
	// ShedRate is the bad-outcome fraction over ShedWindow beyond which a
	// replica is soft-drained — weighted out of new sync traffic while
	// its jobs stay reachable — once at least ShedMinSamples attempts
	// are in the window (defaults 0.5 and 20). It is readmitted when the
	// window clears. A soft drain never empties the ring.
	ShedRate       float64
	ShedMinSamples int
	// Client is the proxying HTTP client (default: http.DefaultTransport
	// with no overall timeout — inference requests own their deadlines).
	Client *http.Client
}

func (c *Config) fillDefaults() {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.DrainWait <= 0 {
		c.DrainWait = 500 * time.Millisecond
	}
	if c.AttemptTimeout == 0 {
		c.AttemptTimeout = 10 * time.Second
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 10 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 500 * time.Millisecond
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.ShedWindow <= 0 {
		c.ShedWindow = 10 * time.Second
	}
	if c.ShedRate <= 0 || c.ShedRate > 1 {
		c.ShedRate = 0.5
	}
	if c.ShedMinSamples <= 0 {
		c.ShedMinSamples = 20
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
}

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
	lastSeen time.Time
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
	cfg.fillDefaults()
	if cfg.ShedWindow < shedBuckets {
		return nil, fmt.Errorf("fleet: shed window %v, want at least %v (%d buckets of 1ns)", cfg.ShedWindow, time.Duration(shedBuckets), shedBuckets)
	}
	f := &Fleet{
		cfg:      cfg,
		ring:     NewRing(cfg.VNodes),
		client:   cfg.Client,
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
			window: newShedWindow(cfg.ShedWindow),
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
