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
//	            [-addr :9090] [-health-interval 1s] [-attempt-timeout 10s]
//	            [-debug-addr :6061] [-log-requests]
//
// -health-interval is the router's one clock: a probe times out after two
// intervals, a rolling rekey waits half an interval after draining each
// replica, and the shed window spans ten. Both durations must be
// positive; anything else exits 2. The routing policy is fixed (see
// internal/fleet.Config).
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
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"radar/internal/fleet"
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
		healthInterval = flag.Duration("health-interval", time.Second, "health probe interval; probe timeout, rekey drain wait and shed window derive from it")
		attemptTimeout = flag.Duration("attempt-timeout", 10*time.Second, "per-attempt deadline on proxied data-plane requests; a timeout with the client still live ejects the replica as slow and fails over")
		debugAddr      = flag.String("debug-addr", "", "optional separate listen address for net/http/pprof (empty disables)")
		logReqs        = flag.Bool("log-requests", false, "log every HTTP request (id, method, path, status, duration) via slog")
	)
	flag.Parse()
	if len(replicas) == 0 {
		log.Fatal("at least one -replica is required")
	}
	if *healthInterval <= 0 || *attemptTimeout <= 0 {
		fmt.Fprintf(os.Stderr, "-health-interval and -attempt-timeout must be positive, got %v and %v\n", *healthInterval, *attemptTimeout)
		os.Exit(2)
	}

	f, err := fleet.New(fleet.Config{
		Replicas:       replicas,
		HealthInterval: *healthInterval,
		AttemptTimeout: *attemptTimeout,
	})
	if err != nil {
		log.Fatalf("fleet: %v", err)
	}
	f.Start()

	log.Printf("routing %d replica(s) [%s] on %s — probe=%v attempt=%v",
		len(replicas), strings.Join(replicas, ", "), *addr, *healthInterval, *attemptTimeout)
	if err := serve.ListenAndServe(*addr, *debugAddr, *logReqs, f.Handler()); err != nil {
		log.Fatal(err)
	}
	f.Stop()
}
