// Package serve is the protected inference serving subsystem: it keeps
// RADAR-protected quantized models continuously safe while answering
// inference traffic — the paper's run-time deployment model turned into an
// actual server.
//
// The public surface is the Service, built with Open from functional
// options: it hosts any number of independently configured models, each one
// Server runtime registered through AddModel (engine, protector, batcher,
// scrubber, verifier), behind a front-end keyed by name. Sync inference is
// Service.Infer(ctx, Request) — context deadlines and cancellation are
// honored all the way into the batch queue — and the async job API
// (Submit / Poll / Wait, backed by a bounded job table) answers traffic
// without parking a connection per request; DELETE /v1/jobs/{id} (Cancel)
// tears a pending job down. Handler exposes the versioned HTTP control
// plane (/v1/models/{name}/infer, /v1/models/{name}/jobs, /v1/jobs/{id},
// /v1/models, /v1/admin/scrub, /v1/admin/rekey,
// /v1/admin/models/{name}). Every live figure — request counts, batch
// occupancy, latency, scrub and verify findings, recovery splits, job-table
// occupancy — is a series on GET /v1/metrics (Service.WriteMetrics), the
// one metrics surface. The model set is mutable at run time via
// AddModel/RemoveModel — the hook a fleet router's control plane drives.
//
// Per hosted model, four cooperating pieces share one int8 weight image:
//
//   - A bounded request queue drained by a pool of inference workers. A
//     worker blocks for one request, takes whatever else is already queued
//     (up to the max batch size) and runs them as one forward pass: an idle
//     model answers a lone request at once, and a batch is whatever queued
//     while the workers were busy. Nothing waits on a timer.
//   - A background scrubber goroutine that every scrub interval scans and
//     repairs the layers nothing has verified lately, oldest first.
//   - A verified weight-fetch path: every quantized layer's checksum is
//     recomputed inside the fetch step of every stage of every batch —
//     under the read lock the stage then computes under, on the bytes its
//     convolution reads next — and a mismatch is repaired before the stage
//     runs. Nothing is cached: a flip that no write observer saw lives
//     until the next batch, not until the next scrub tick.
//   - An attack-injection hook that runs an adversary (e.g. adversary.Mount
//     landing a PBFA profile as rowhammer flips: direct writes no write
//     observer sees) against the live model under whole-model write
//     exclusion, so integration tests and benchmarks can flip bits
//     mid-traffic without tripping the race detector.
//
// All cross-goroutine access to a weight image is coordinated through the
// per-layer locks its core.Protector owns: inference and scans take
// per-layer read locks, recovery, rekeys and injected attacks take write
// locks. The subsystem is therefore -race-clean by construction while
// flips, scrubs, verified fetches and batched forwards all land on the
// same storage.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"radar/internal/core"
	"radar/internal/obs"
	"radar/internal/qinfer"
	"radar/internal/quant"
	"radar/internal/tensor"
)

// config is one hosted model's serving settings: newConfig's defaults,
// tuned by the ModelOptions.
type config struct {
	// scrubInterval is the background scrubber period — the exposure
	// target of a model without traffic (see Server.Scrub); zero disables it.
	scrubInterval time.Duration
	// inputShape, when set, is the expected per-request input shape
	// (C, H, W); Infer and the HTTP front-end validate against it.
	inputShape []int
	// workers inference goroutines drain a queue of queueDepth pending
	// requests, each taking up to maxBatch of them into one forward pass
	// (a pass carries what had queued when its worker came free). Only
	// tests change them, to build exact backlogs.
	workers, maxBatch, queueDepth int
}

// newConfig returns the serving defaults: a 100ms scrubber, one worker
// per CPU, batches of up to 8 and a queue of 256.
func newConfig() config {
	return config{
		scrubInterval: 100 * time.Millisecond,
		workers:       runtime.GOMAXPROCS(0),
		maxBatch:      8,
		queueDepth:    256,
	}
}

// InferResult is one input's answer: an element of the sync route's
// InferResponse, and embedded verbatim in the async route's JobStatus.
type InferResult struct {
	// Class is the argmax of Logits.
	Class int `json:"class"`
	// Logits is the classifier output row for this input.
	Logits []float32 `json:"logits"`
}

// request is one queued inference input awaiting batching.
type request struct {
	ctx context.Context // submitter's context; cancelled requests are skipped
	x   *tensor.Tensor  // (C, H, W)
	id  string          // X-Request-Id when traced; "" skips trace recording
	enq time.Time
	out chan InferResult
}

// ErrStopping is returned by submissions that race a graceful shutdown:
// the server has begun stopping and accepts no new work. It is stable
// (errors.Is-able); the HTTP front-ends map it to 503 with a Retry-After
// header so load balancers retry elsewhere.
var ErrStopping = errors.New("serve: server stopping")

// ErrQueueFull is returned by non-blocking submissions (the async job
// path) when the bounded request queue is at capacity. The HTTP front-end
// maps it to 429.
var ErrQueueFull = errors.New("serve: request queue full")

// Server is one hosted model's runtime: a name bound to an int8 inference
// engine and the RADAR protector guarding its weight image, serving
// batched, continuously-verified inference. A Service's registry maps each
// model name to one; AddModel builds it with newServerIn and Starts it, and
// RemoveModel and Close Stop it (draining in-flight requests). Server has
// no public constructor: use Open and AddModel.
type Server struct {
	cfg    config
	name   string // hosted-model name, the `model` label on every series
	eng    *qinfer.Engine
	prot   *core.Protector
	model  *quant.Model
	met    *metrics
	traces *obs.TraceRing // shared service-wide ring; never nil

	reqs chan *request

	// submitMu lets Stop wait out in-flight Infer sends before closing
	// reqs; stopping flips first so new submitters bail out.
	submitMu sync.RWMutex
	stopping atomic.Bool
	started  atomic.Bool

	scrubStop chan struct{}
	scrubWG   sync.WaitGroup
	workWG    sync.WaitGroup

	// verifyNs is the cumulative wall time inference passes spent in their
	// fetch steps (radar_verify_seconds_total).
	verifyNs atomic.Int64
	// queueNs is the cumulative time answered requests waited in reqs,
	// enqueue to dequeue (radar_queue_seconds_total).
	queueNs atomic.Int64
	// scrubNs is the cumulative wall time of scrub cycles (radar_scrub_seconds_total).
	scrubNs atomic.Int64
}

// defaultTraceRingSize bounds the per-service trace ring: enough to hold a
// burst of routed requests for /v1/debug/traces without unbounded growth.
const defaultTraceRingSize = 256

// newServerIn wires a server around an engine and the protector guarding
// the engine's weight image, binding its metrics to reg under the `model`
// label name and its request traces to traces. The engine becomes owned by
// the server: its workers run every pass through the protector's verified
// fetch, so it must not be used for unrelated inference afterwards. The
// protector must protect the same quant.Model the engine was compiled from.
func newServerIn(eng *qinfer.Engine, prot *core.Protector, cfg config, reg *obs.Registry, name string, traces *obs.TraceRing) *Server {
	m := prot.Model
	s := &Server{
		cfg:       cfg,
		name:      name,
		eng:       eng,
		prot:      prot,
		model:     m,
		met:       newMetrics(reg, name),
		traces:    traces,
		reqs:      make(chan *request, cfg.queueDepth),
		scrubStop: make(chan struct{}),
	}
	s.registerFuncs(reg, name)
	return s
}

// exposureWindow is how long the least recently verified layer has gone
// since a check that could have seen a physical flip.
func (s *Server) exposureWindow() time.Duration {
	oldest, _ := s.prot.Verified()
	return time.Since(oldest)
}

// Start launches the inference workers and (when configured) the
// background scrubber.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	for w := 0; w < s.cfg.workers; w++ {
		s.workWG.Add(1)
		go s.worker()
	}
	if s.cfg.scrubInterval > 0 {
		s.scrubWG.Add(1)
		go s.scrubLoop()
	}
}

// Stop gracefully shuts the server down: new submissions fail immediately
// with ErrStopping, already-queued requests are batched, answered and
// counted, and the scrubber exits after its current cycle. Stop returns
// once every goroutine has finished; it is idempotent.
func (s *Server) Stop() {
	if !s.stopping.CompareAndSwap(false, true) {
		return
	}
	// Wait for in-flight submitters (they hold submitMu.RLock while
	// sending), then close the intake so the workers drain it and exit.
	s.submitMu.Lock()
	close(s.reqs)
	s.submitMu.Unlock()
	s.workWG.Wait()
	close(s.scrubStop)
	s.scrubWG.Wait()
}

// inferContext submits one input of shape (C, H, W) — or (1, C, H, W) —
// and blocks until its result is ready or ctx is done. Cancellation is
// honored at every stage: while waiting for space in the bounded request
// queue, and while waiting for the batched forward pass (a request whose
// context is cancelled before its batch runs is dropped by the workers
// without being computed). Safe for any number of concurrent callers;
// submissions that queue while the workers are busy share a forward pass.
// id is the request id its trace is recorded under; the empty id skips
// trace recording (the Go-API hot path).
func (s *Server) inferContext(ctx context.Context, x *tensor.Tensor, id string) (InferResult, error) {
	ch, err := s.submit(ctx, x, id, true)
	if err != nil {
		return InferResult{}, err
	}
	select {
	case res := <-ch:
		return res, nil
	case <-ctx.Done():
		return InferResult{}, ctx.Err()
	}
}

// newRequest validates one input and wraps it for the queue.
func (s *Server) newRequest(ctx context.Context, x *tensor.Tensor, id string) (*request, error) {
	shape := x.Shape
	if len(shape) == 4 && shape[0] == 1 {
		shape = shape[1:]
	}
	if len(shape) != 3 {
		return nil, fmt.Errorf("serve: input shape %v, want (C,H,W)", x.Shape)
	}
	if err := checkShape(shape, len(x.Data)); err != nil {
		return nil, err
	}
	if c := s.eng.InputChannels(); shape[0] != c {
		return nil, fmt.Errorf("serve: input shape %v has %d channels, the model takes %d", shape, shape[0], c)
	}
	if want := s.cfg.inputShape; len(want) == 3 {
		if shape[0] != want[0] || shape[1] != want[1] || shape[2] != want[2] {
			return nil, fmt.Errorf("serve: input shape %v, want %v", shape, want)
		}
	}
	return &request{ctx: ctx, x: x, id: id, enq: time.Now(), out: make(chan InferResult, 1)}, nil
}

// checkShape rejects a (C,H,W) shape with a dimension below 1 (tensor.New
// panics on it in the worker) or not of n values, by a float64 volume: no wrap.
func checkShape(shape []int, n int) error {
	if slices.Min(shape) < 1 || float64(shape[0])*float64(shape[1])*float64(shape[2]) != float64(n) {
		return fmt.Errorf("serve: input shape %v does not hold %d values", shape, n)
	}
	return nil
}

// submit validates and enqueues one input, returning the channel its
// result will arrive on. With wait set it blocks while the queue is full,
// bailing out when ctx is done — inferContext and the sync HTTP route, which
// submits a whole body before collecting so multi-input requests batch
// naturally. Without it (the async job path) a full queue fails at once
// with ErrQueueFull instead of parking the caller.
func (s *Server) submit(ctx context.Context, x *tensor.Tensor, id string, wait bool) (<-chan InferResult, error) {
	r, err := s.newRequest(ctx, x, id)
	if err != nil {
		return nil, err
	}
	s.submitMu.RLock()
	defer s.submitMu.RUnlock()
	if s.stopping.Load() || !s.started.Load() {
		return nil, ErrStopping
	}
	select {
	case s.reqs <- r:
		return r.out, nil
	default:
		if !wait {
			return nil, ErrQueueFull
		}
	}
	select {
	case s.reqs <- r:
		return r.out, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Inject runs an adversary against the live model under whole-model write
// exclusion: no inference fetch, scan or recovery overlaps f. This is the
// attack-injection hook — hand it a closure that mounts a volley through
// adversary.Mount or flips chosen bits, and the serving stack will detect
// and recover on the following fetches and scrub cycles.
func (s *Server) Inject(f func(m *quant.Model)) {
	s.prot.Exclusive(func() { f(s.model) })
	s.met.injections.Inc()
}

// Healthy reports whether the server is started and not stopping.
func (s *Server) Healthy() bool { return s.started.Load() && !s.stopping.Load() }
