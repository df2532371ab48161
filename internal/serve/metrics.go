package serve

import (
	"math"
	"sort"
	"time"

	"radar/internal/obs"
)

// Histogram bucket layouts. Latency buckets run 0.1ms–2.5s (an idle tiny
// model answers in a few hundred µs; a fleet failover retry can stack a
// few hundred ms); occupancy buckets cover the power-of-two batch sizes
// up to maxBatch and beyond.
var (
	latencyBuckets   = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}
	occupancyBuckets = []float64{1, 2, 4, 8, 16, 32}
)

// metrics holds one model runtime's live instruments, all children of the
// service-wide obs.Registry under this model's `model` label. Counters and
// histograms are pure atomics, so the inference hot path never shares a
// lock with a scrape — the mutex'd latency reservoir this replaced is
// gone.
type metrics struct {
	requests  *obs.Counter
	cancelled *obs.Counter
	batches   *obs.Counter
	batched   *obs.Counter

	scrubCycles   *obs.Counter
	scrubFlagged  *obs.Counter
	scrubZeroed   *obs.Counter
	scrubScanned  *obs.Counter // radar_scrub_layers_total by outcome
	scrubFresh    *obs.Counter
	scrubDeferred *obs.Counter

	verifyScans   *obs.Counter
	verifyFlagged *obs.Counter
	verifyZeroed  *obs.Counter

	injections *obs.Counter
	advFlips   *obs.Counter
	rekeys     *obs.Counter

	latency   *obs.Histogram // end-to-end seconds, enqueue to answer
	occupancy *obs.Histogram // requests per executed batch
}

// newMetrics registers this model's children on reg. Registration is
// idempotent at the family level, so every hosted model binds children of
// the same families.
func newMetrics(reg *obs.Registry, model string) *metrics {
	layers := reg.Counter("radar_scrub_layers_total", "Layers seen by scrub cycles: scanned, skipped as verified within half an interval (fresh), or left to a later tick by the byte budget (deferred).", "model", "outcome")
	return &metrics{
		requests:      reg.Counter("radar_requests_total", "Inference requests answered.", "model").With(model),
		cancelled:     reg.Counter("radar_requests_cancelled_total", "Requests dropped before their forward pass because the submitter's context was cancelled.", "model").With(model),
		batches:       reg.Counter("radar_batches_total", "Batched forward passes executed.", "model").With(model),
		batched:       reg.Counter("radar_batched_requests_total", "Requests carried by batched forward passes.", "model").With(model),
		scrubCycles:   reg.Counter("radar_scrub_cycles_total", "Background scrub cycles completed.", "model").With(model),
		scrubFlagged:  reg.Counter("radar_scrub_flagged_total", "Groups flagged by scrub cycles.", "model").With(model),
		scrubZeroed:   reg.Counter("radar_scrub_zeroed_total", "Weights zeroed by scrub recovery.", "model").With(model),
		scrubScanned:  layers.With(model, "scanned"),
		scrubFresh:    layers.With(model, "fresh"),
		scrubDeferred: layers.With(model, "deferred"),
		verifyScans:   reg.Counter("radar_verify_scans_total", "Layers verified inside an inference weight fetch.", "model").With(model),
		verifyFlagged: reg.Counter("radar_verify_flagged_total", "Groups flagged by fetch-path verification.", "model").With(model),
		verifyZeroed:  reg.Counter("radar_verify_zeroed_total", "Weights zeroed by fetch-path recovery.", "model").With(model),
		injections:    reg.Counter("radar_injections_total", "Attack injection rounds mounted on the live model.", "model").With(model),
		advFlips:      reg.Counter("radar_adversary_flips_total", "Bit flips mounted on the live model by injected adversary volleys.", "model").With(model),
		rekeys:        reg.Counter("radar_rekeys_total", "Live rotations of the model's protection secrets.", "model").With(model),
		latency:       reg.Histogram("radar_request_latency_seconds", "End-to-end request latency, enqueue to answer.", latencyBuckets, "model").With(model),
		occupancy:     reg.Histogram("radar_batch_occupancy", "Requests coalesced per executed forward pass.", occupancyBuckets, "model").With(model),
	}
}

// observeLatency records one request's enqueue-to-answer latency.
func (m *metrics) observeLatency(d time.Duration) {
	m.latency.Observe(d.Seconds())
}

// registerFuncs binds the scrape-time function children for this server:
// the queue-depth and exposure-window gauges, the protector's core
// counters, the engine's stage clock, and the fetch-step and queue-wait
// clocks. Called once from newServerIn after the runtime's channels exist.
func (s *Server) registerFuncs(reg *obs.Registry, model string) {
	reg.Gauge("radar_queue_depth", "Requests waiting in the model's bounded batch queue.", "model").
		Func(func() float64 { return float64(len(s.reqs)) }, model)
	reg.Counter("radar_protector_scans_total", "Protection scans run (scrubber + verified fetch).", "model").
		Func(func() float64 { return float64(s.prot.Stats().Scans) }, model)
	reg.Counter("radar_scan_bytes_total", "Weight bytes covered by protection scans.", "model").
		Func(func() float64 { return float64(s.prot.Stats().BytesScanned) }, model)
	reg.Counter("radar_groups_flagged_total", "Signature mismatches across all scans.", "model").
		Func(func() float64 { return float64(s.prot.Stats().GroupsFlagged) }, model)
	reg.Counter("radar_groups_recovered_total", "Groups recovered (corrected or zeroed) after flagging.", "model").
		Func(func() float64 { return float64(s.prot.Stats().GroupsRecovered) }, model)
	reg.Counter("radar_groups_corrected_total", "Flagged groups repaired in place by the ECC correction path.", "model").
		Func(func() float64 { return float64(s.prot.Stats().GroupsCorrected) }, model)
	reg.Counter("radar_groups_zeroed_total", "Flagged groups recovered by zeroing.", "model").
		Func(func() float64 { return float64(s.prot.Stats().GroupsZeroed) }, model)
	reg.Counter("radar_weights_zeroed_total", "Individual weights zeroed during recovery.", "model").
		Func(func() float64 { return float64(s.prot.Stats().WeightsZeroed) }, model)
	reg.Gauge("radar_exposure_window_seconds", "Time since the least recently verified layer was last checked by a verified fetch or the scrubber.", "model").
		Func(func() float64 { return s.exposureWindow().Seconds() }, model)
	reg.Counter("radar_gemm_stages_total", "Quantized stages executed (conv stages and the classifier).", "model").
		Func(func() float64 { st, _ := s.eng.StageStats(); return float64(st) }, model)
	reg.Counter("radar_gemm_stage_seconds_total", "Wall time inside quantized stage compute.", "model").
		Func(func() float64 { _, ns := s.eng.StageStats(); return float64(ns) / 1e9 }, model)
	reg.Counter("radar_verify_seconds_total", "Wall time inference passes spent in weight-fetch steps (lock waits and verification).", "model").
		Func(func() float64 { return float64(s.verifyNs.Load()) / 1e9 }, model)
	reg.Counter("radar_scrub_seconds_total", "Wall time spent inside scrub cycles; its rate against 1 is the scrubber's duty cycle.", "model").
		Func(func() float64 { return float64(s.scrubNs.Load()) / 1e9 }, model)
	reg.Counter("radar_queue_seconds_total", "Time answered requests spent in the batch queue, enqueue to dequeue.", "model").
		Func(func() float64 { return float64(s.queueNs.Load()) / 1e9 }, model)
}

// quantiles returns nearest-rank quantiles (q in [0,1]) over samples,
// which need not be sorted; zeros when samples is empty. The rank is the
// standard ceil(q·n) (1-based), so p99 over a small sample set is the
// true 99th-percentile order statistic rather than one rank low — the old
// int(q·(n-1)) truncation biased small-n tails toward the median.
func quantiles(samples []time.Duration, qs ...float64) []time.Duration {
	out := make([]time.Duration, len(qs))
	if len(samples) == 0 {
		return out
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := len(sorted)
	for i, q := range qs {
		k := int(math.Ceil(q*float64(n))) - 1
		if k < 0 {
			k = 0
		}
		if k > n-1 {
			k = n - 1
		}
		out[i] = sorted[k]
	}
	return out
}
