package main

import "time"

// defaultSeconds is BENCHMARK.json's run_seconds: the measured length of one
// workload run. The phase lengths below are shares of it.
const defaultSeconds = 24

// frontKind says how deep into the stack a workload's load phases reach.
type frontKind int

const (
	frontEngine frontKind = iota // Engine.Forward on the clean reference engine: the traced ladder's depth 0
	frontDirect                  // in-process Service.Infer: no HTTP, no router
	frontHTTP                    // POST to the replica's own listener
	frontRouted                  // POST to the fleet router
)

func (f frontKind) String() string {
	return [...]string{"engine", "direct", "http", "routed"}[f]
}

// spanName is the call the benchmark times at this depth.
func (f frontKind) spanName() string {
	return [...]string{"qinfer.Engine.Forward", "serve.Service.Infer", "serve.http", "fleet.routed"}[f]
}

// imageKind selects the weight image the scan section guards.
type imageKind int

const (
	imageHeap   imageKind = iota // model.SyntheticQuant(ResNet18ImageNetShapes()), 11.7 MB on the heap, G=512
	imageMapped                  // 128 MiB store checkpoint, mmap'd, released layer by layer
)

// phaseSpec is one open-loop load phase at Rate requests per second.
type phaseSpec struct {
	Name    string
	Share   float64 // of the run's measured seconds
	Rate    float64
	Inputs  int  // inputs per request
	Volleys bool // adversary volleys land on the served models during the phase
}

// workload is one deployment plus its traffic. All four run the same
// skeleton (scan section, then the load phases); they differ only in this
// table, so a number means the same thing wherever it is reported.
type workload struct {
	Name  string
	Why   string
	Image imageKind
	// ScanShare is the scan section's share of the measured seconds.
	ScanShare float64
	// Model, Replicas and Models describe the served side: every replica
	// hosts Models copies of the zoo model, each replica owns one name.
	Model    string
	Replicas int
	Models   int
	Front    frontKind
	Phases   []phaseSpec
	// VolleyEvery is the target spacing of adversary volleys.
	VolleyEvery time.Duration
	// BulkRate is the traced run's 8-input open loop, requests per second.
	BulkRate float64
}

// The volley period shares only a small factor with the 800 ms full-scrub
// cycle, so flip phases cover the cycle evenly (see volleyPlan).
const fleetVolleyEvery = 330 * time.Millisecond

// companionVolleyEvery is the spacing in the attack phase the three non-fleet
// workloads carry: denser, so that a 5–7 s phase still samples the scrub
// cycle at 30-odd evenly spread points.
const companionVolleyEvery = 150 * time.Millisecond

var workloads = []workload{
	{
		Name:      "scan-heap",
		Why:       "core alone on an 11.7 MB heap image: compute-bound, so kernel, shard and scratch work shows here; its serving side is one tiny replica over HTTP, router bypassed",
		Image:     imageHeap,
		ScanShare: 0.40,
		Model:     "tiny", Replicas: 1, Models: 1, Front: frontHTTP,
		Phases: []phaseSpec{
			{Name: "single", Share: 0.35, Rate: 200, Inputs: 1},
			{Name: "attack", Share: 0.25, Rate: 200, Inputs: 1, Volleys: true},
		},
		VolleyEvery: companionVolleyEvery, BulkRate: 50,
	},
	{
		Name:      "scan-mapped",
		Why:       "store + core on a 128 MiB mmap'd checkpoint larger than cache: every pass re-faults released pages, so it is memory-bound and a kernel speed-up should not move it",
		Image:     imageMapped,
		ScanShare: 0.50,
		Model:     "tiny", Replicas: 1, Models: 1, Front: frontHTTP,
		Phases: []phaseSpec{
			{Name: "single", Share: 0.28, Rate: 200, Inputs: 1},
			{Name: "attack", Share: 0.22, Rate: 200, Inputs: 1, Volleys: true},
		},
		VolleyEvery: companionVolleyEvery, BulkRate: 50,
	},
	{
		Name:      "serve-http",
		Why:       "qinfer + serve: one replica hosts resnet20s over HTTP, so the forward pass is most of each request and GEMM or fused-verify work shows; the router is bypassed",
		Image:     imageHeap,
		ScanShare: 0.20,
		Model:     "resnet20s", Replicas: 1, Models: 1, Front: frontHTTP,
		Phases: []phaseSpec{
			{Name: "single", Share: 0.52, Rate: 100, Inputs: 1},
			{Name: "attack", Share: 0.28, Rate: 100, Inputs: 1, Volleys: true},
		},
		VolleyEvery: companionVolleyEvery, BulkRate: 20,
	},
	{
		Name:      "fleet-attack",
		Why:       "fleet + serve + adversary: 2 replicas x 2 tiny models behind the router under live flips; forward is under 10% of a request, so batching, JSON, HTTP and the proxy hop dominate",
		Image:     imageHeap,
		ScanShare: 0.22,
		Model:     "tiny", Replicas: 2, Models: 2, Front: frontRouted,
		Phases: []phaseSpec{
			{Name: "single", Share: 0.78, Rate: 200, Inputs: 1, Volleys: true},
		},
		VolleyEvery: fleetVolleyEvery, BulkRate: 50,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef names one metric. Bound is set on end-to-end metrics only. Moves
// says, for a per-layer metric, which end-to-end metric it should move and
// on which workload — written down before measuring, so that a later change
// can be checked against the prediction.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "scan_mbps", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "protect_mbps", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "infer_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "exposure_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "answer_match_rate", Unit: "ratio", Better: "higher", Bound: 0.04},
}

var perLayer = []metricDef{
	{Name: "core.kernel_mbps", Unit: "MB/s", Better: "higher", Moves: "scan_mbps, protect_mbps on scan-heap (the gap between them is shard, lock and scratch cost); flat on scan-mapped (memory-bound)"},
	{Name: "core.scan_wn_mbps", Unit: "MB/s", Better: "higher", Moves: "Scan at default workers (nproc): what the pool adds over scan_mbps; bimodal on a shared 2-vCPU host, so informational"},
	{Name: "core.protect_wn_mbps", Unit: "MB/s", Better: "higher", Moves: "Protect at default workers: what the pool adds over protect_mbps; informational"},
	{Name: "core.scan_layer_max_ms", Unit: "ms", Better: "lower", Moves: "scan_mbps (the parallel tail)"},
	{Name: "core.scan_dirty_us", Unit: "us", Better: "lower", Moves: "client.p95_ms on fleet-attack (scrub-cycle cost)"},
	{Name: "core.verify_layer_us", Unit: "us", Better: "lower", Moves: "infer_p50_ms on fleet-attack once fetch verification stops being cached; <=2% on serve-http"},
	{Name: "core.recover_ms", Unit: "ms", Better: "lower", Moves: "one DetectAndRecover of the scan image after a 16-flip volley; on scan-mapped it is page faults as much as scanning and did not repeat within a quarter, so not bounded"},
	{Name: "core.recover_us_per_group", Unit: "us", Better: "lower", Moves: "core.recover_ms"},
	{Name: "core.scan_allocs", Unit: "count", Better: "lower", Moves: "rss_peak_mb, scan_mbps"},
	{Name: "core.scans", Unit: "count", Better: "higher", Moves: "work count"},
	{Name: "core.bytes_scanned", Unit: "bytes", Better: "higher", Moves: "work count"},
	{Name: "core.groups_flagged", Unit: "count", Better: "higher", Moves: "work count"},
	{Name: "core.groups_corrected", Unit: "count", Better: "higher", Moves: "work count"},
	{Name: "core.groups_zeroed", Unit: "count", Better: "lower", Moves: "work count"},
	{Name: "core.detect_ratio", Unit: "ratio", Better: "higher", Moves: "answer_match_rate"},
	{Name: "store.save_mbps", Unit: "MB/s", Better: "higher", Moves: "informational (52-406 MB/s in sizing probes)"},
	{Name: "store.open_ms", Unit: "ms", Better: "lower", Moves: "setup_s on scan-mapped"},
	{Name: "store.sync_dirty_ms", Unit: "ms", Better: "lower", Moves: "core.recover_ms on scan-mapped"},
	{Name: "store.release_layer_us", Unit: "us", Better: "lower", Moves: "scan_mbps, rss_peak_mb on scan-mapped"},
	{Name: "store.cold_scan_mbps", Unit: "MB/s", Better: "higher", Moves: "scan_mbps on scan-mapped"},
	{Name: "store.file_bytes_per_weight", Unit: "B/weight", Better: "lower", Moves: "exact: space cost"},
	{Name: "store.reopen_verified", Unit: "ratio", Better: "higher", Moves: "exact: durability"},
	{Name: "qinfer.compile_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},
	{Name: "qinfer.forward_b1_ms", Unit: "ms", Better: "lower", Moves: "infer_p50_ms on serve-http; <5% of p50 on fleet-attack"},
	{Name: "qinfer.forward_b8_ms", Unit: "ms", Better: "lower", Moves: "serve.bulk_p50_ms, serve.caller_ips on serve-http"},
	{Name: "qinfer.fetch_hooks", Unit: "count", Better: "lower", Moves: "verifications one request pays"},
	{Name: "serve.direct_p50_ms", Unit: "ms", Better: "lower", Moves: "infer_p50_ms on every workload"},
	{Name: "serve.http_p50_ms", Unit: "ms", Better: "lower", Moves: "infer_p50_ms on scan-heap, scan-mapped, serve-http"},
	{Name: "serve.http_self_ms", Unit: "ms", Better: "lower", Moves: "infer_p50_ms on every workload (JSON, SetIndent, net/http)"},
	{Name: "serve.queue_ms", Unit: "ms", Better: "lower", Moves: "infer_p50_ms, not serve.bulk_p50_ms (the 2 ms batch window)"},
	{Name: "serve.batch_ms", Unit: "ms", Better: "lower", Moves: "infer_p50_ms"},
	{Name: "serve.verify_ms", Unit: "ms", Better: "lower", Moves: "infer_p50_ms"},
	{Name: "serve.forward_ms", Unit: "ms", Better: "lower", Moves: "infer_p50_ms on serve-http"},
	{Name: "serve.self_ms", Unit: "ms", Better: "lower", Moves: "infer_p50_ms"},
	{Name: "serve.avg_batch", Unit: "inputs", Better: "higher", Moves: "client.sat_ips"},
	{Name: "serve.verify_hit_ratio", Unit: "ratio", Better: "higher", Moves: "exposure_ms (who detects a flip)"},
	{Name: "serve.scrub_cycles", Unit: "count", Better: "higher", Moves: "exposure_ms"},
	{Name: "serve.scrub_flagged", Unit: "count", Better: "higher", Moves: "exposure_ms"},
	{Name: "serve.verify_flagged", Unit: "count", Better: "higher", Moves: "exposure_ms"},
	{Name: "serve.bulk_p50_ms", Unit: "ms", Better: "lower", Moves: "8-input requests, open loop: does not pay the batch window; moved by qinfer.forward_b8_ms on serve-http, by JSON and HTTP elsewhere; +-25% between identical runs, so not bounded"},
	{Name: "serve.caller_ips", Unit: "inputs/s", Better: "higher", Moves: "one waiting caller x 8 inputs: moved by qinfer.forward_b8_ms on serve-http; +-25% between identical runs, so not bounded"},
	{Name: "serve.req_bytes", Unit: "bytes", Better: "lower", Moves: "infer_p50_ms, serve.bulk_p50_ms"},
	{Name: "serve.resp_bytes", Unit: "bytes", Better: "lower", Moves: "infer_p50_ms, serve.bulk_p50_ms"},
	{Name: "serve.metrics_agree", Unit: "ratio", Better: "higher", Moves: "exact: checks the instruments"},
	{Name: "fleet.routed_p50_ms", Unit: "ms", Better: "lower", Moves: "infer_p50_ms on fleet-attack"},
	{Name: "fleet.self_ms", Unit: "ms", Better: "lower", Moves: "infer_p50_ms on fleet-attack; no change on the other three, which bypass the router"},
	{Name: "fleet.retries", Unit: "count", Better: "lower", Moves: "expected 0"},
	{Name: "fleet.failovers", Unit: "count", Better: "lower", Moves: "expected 0"},
	{Name: "fleet.ejections", Unit: "count", Better: "lower", Moves: "expected 0"},
	{Name: "fleet.owner_share", Unit: "ratio", Better: "higher", Moves: "expected 1/replicas"},
	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower", Moves: "client.p95_ms"},
	{Name: "obs.scrape_bytes", Unit: "bytes", Better: "lower", Moves: "client.p95_ms"},
	{Name: "adversary.volleys", Unit: "count", Better: "higher", Moves: "exposure_ms"},
	{Name: "adversary.flips_mounted", Unit: "count", Better: "higher", Moves: "exposure_ms"},
	{Name: "adversary.flips_repaired", Unit: "count", Better: "higher", Moves: "exposure_ms"},
	{Name: "adversary.exposure_max_ms", Unit: "ms", Better: "lower", Moves: "exposure_ms"},
	{Name: "client.p95_ms", Unit: "ms", Better: "lower", Moves: "whole-run p95 at the front: the tail users see; on the shared host it is the neighbour's as much as the program's (even the quietest window's p95 spread 12-21% on serve-http), so not bounded"},
	{Name: "client.p99_ms", Unit: "ms", Better: "lower", Moves: "informational (8-16 ms across identical runs)"},
	{Name: "client.late_p95_ms", Unit: "ms", Better: "lower", Moves: "run validity: above 2 ms the generator, not the system, set the latency"},
	{Name: "client.inflight_max", Unit: "count", Better: "lower", Moves: "run validity: a growing backlog"},
	{Name: "client.sat_ips", Unit: "inputs/s", Better: "higher", Moves: "nproc closed-loop callers: the box's two-thread capacity; informational (4.8-7.2k inputs/s across identical runs)"},
	{Name: "trace.sum_gap_pct", Unit: "%", Better: "lower", Moves: "attribution check: layer self times against the untraced client p50"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: "the cost of tracing"},
}
