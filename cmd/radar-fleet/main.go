// Command radar-fleet is the consistent-hash router in front of a set of
// radar-serve replicas. It exposes the same /v1 data plane as a single
// replica — clients cannot tell the difference — and routes each model's
// traffic to the replica that owns it on the hash ring, with automatic
// failover, health-based ejection, and a fleet admin plane.
//
// Usage:
//
//	radar-fleet -replica http://10.0.0.1:8080 -replica http://10.0.0.2:8080 \
//	            -replica http://10.0.0.3:8080 \
//	            [-addr :9090] [-vnodes 64] [-health-interval 1s]
//	            [-health-timeout 2s] [-fail-threshold 2] [-drain-wait 500ms]
//	            [-attempt-timeout 10s] [-retry-budget 3]
//	            [-backoff-base 10ms] [-backoff-max 500ms]
//	            [-max-body-bytes 8388608] [-shed-window 10s]
//	            [-shed-threshold 0.5] [-shed-min-samples 20]
//	            [-debug-addr :6061] [-log-requests]
//
// Endpoints:
//
//	POST   /v1/models/{name}/infer  routed by ring owner, failover retry
//	POST   /v1/models/{name}/jobs   routed by owner
//	GET    /v1/jobs/{id}            poll, routed by the ID's replica tag
//	DELETE /v1/jobs/{id}            cancel, routed by the ID's replica tag
//	GET    /v1/models               merged listing with per-model owners
//	GET    /v1/models/{name}        routed by owner
//	POST   /v1/admin/scrub          broadcast scrub sweep
//	POST   /v1/admin/rekey          zero-downtime rolling rekey
//	POST   /v1/admin/models/{name}  broadcast hot-add
//	DELETE /v1/admin/models/{name}  broadcast hot-remove
//	GET    /v1/fleet                replica health and ring membership
//	GET    /v1/metrics              router series + replica-labelled scrape
//	GET    /v1/debug/traces         merged per-request stage timings
//
// SIGINT/SIGTERM drains the HTTP listener, then stops the health prober.
package main

import (
	"context"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"radar/internal/fleet"
	"radar/internal/obs"
	"radar/internal/serve"
)

// replicaFlag collects repeatable -replica base URLs.
type replicaFlag []string

func (r *replicaFlag) String() string { return strings.Join(*r, ",") }
func (r *replicaFlag) Set(v string) error {
	*r = append(*r, v)
	return nil
}

func main() {
	var replicas replicaFlag
	flag.Var(&replicas, "replica", "radar-serve replica base URL (e.g. http://10.0.0.1:8080); repeatable")
	var (
		addr           = flag.String("addr", ":9090", "HTTP listen address")
		vnodes         = flag.Int("vnodes", 64, "virtual nodes per replica on the hash ring")
		healthInterval = flag.Duration("health-interval", time.Second, "health probe interval")
		healthTimeout  = flag.Duration("health-timeout", 2*time.Second, "health probe timeout")
		failThreshold  = flag.Int("fail-threshold", 2, "consecutive probe failures before a replica is ejected")
		drainWait      = flag.Duration("drain-wait", 500*time.Millisecond, "settle time after draining a replica during rolling rekey")
		attemptTimeout = flag.Duration("attempt-timeout", 10*time.Second, "per-attempt deadline on proxied data-plane requests; a timeout with the client still live ejects the replica as slow and fails over (negative disables)")
		retryBudget    = flag.Int("retry-budget", 3, "failover replays allowed per request beyond the first attempt")
		backoffBase    = flag.Duration("backoff-base", 10*time.Millisecond, "full-jitter backoff base between failover attempts")
		backoffMax     = flag.Duration("backoff-max", 500*time.Millisecond, "full-jitter backoff ceiling between failover attempts")
		maxBodyBytes   = flag.Int64("max-body-bytes", 8<<20, "largest client request body buffered for failover replay; beyond it the client gets 413")
		shedWindow     = flag.Duration("shed-window", 10*time.Second, "sliding window for per-replica shed/error-rate tracking")
		shedThreshold  = flag.Float64("shed-threshold", 0.5, "bad-outcome fraction over the shed window beyond which a replica is soft-drained out of new sync traffic")
		shedMinSamples = flag.Int("shed-min-samples", 20, "attempts required in the shed window before a soft-drain verdict")
		debugAddr      = flag.String("debug-addr", "", "optional separate listen address for net/http/pprof (empty disables)")
		logReqs        = flag.Bool("log-requests", false, "log every HTTP request (id, method, path, status, duration) via slog")
	)
	flag.Parse()
	if len(replicas) == 0 {
		log.Fatal("at least one -replica is required")
	}

	f, err := fleet.New(fleet.Config{
		Replicas:       replicas,
		VNodes:         *vnodes,
		HealthInterval: *healthInterval,
		HealthTimeout:  *healthTimeout,
		FailThreshold:  *failThreshold,
		DrainWait:      *drainWait,
		AttemptTimeout: *attemptTimeout,
		RetryBudget:    *retryBudget,
		BackoffBase:    *backoffBase,
		BackoffMax:     *backoffMax,
		MaxBodyBytes:   *maxBodyBytes,
		ShedWindow:     *shedWindow,
		ShedRate:       *shedThreshold,
		ShedMinSamples: *shedMinSamples,
	})
	if err != nil {
		log.Fatalf("fleet: %v", err)
	}
	f.Start()

	var handler http.Handler = f.Handler()
	if *logReqs {
		handler = serve.LogRequests(handler, slog.Default())
	}
	if *debugAddr != "" {
		go func() {
			log.Printf("pprof on %s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, obs.PprofHandler()); err != nil && err != http.ErrServerClosed {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	go func() {
		log.Printf("routing %d replica(s) [%s] on %s — vnodes=%d probe=%v eject-after=%d",
			len(replicas), strings.Join(replicas, ", "), *addr, *vnodes, *healthInterval, *failThreshold)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("http: %v", err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	log.Printf("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	f.Stop()
}
