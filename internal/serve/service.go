package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"radar/internal/core"
	"radar/internal/obs"
	"radar/internal/qinfer"
	"radar/internal/quant"
	"radar/internal/tensor"
)

// Request is one inference input addressed to a hosted model. An empty
// Model selects the service's default model (the first one registered) —
// the single-model deployment shorthand.
type Request struct {
	Model string
	// Input is the (C, H, W) — or (1, C, H, W) — image.
	Input *tensor.Tensor
	// RequestID, when set, traces the request: per-stage span timings are
	// recorded into the service trace ring under this id (the X-Request-Id
	// of HTTP-originated requests). Empty skips tracing.
	RequestID string
}

// ServiceOption configures a Service under construction; see Open.
type ServiceOption func(*serviceConfig) error

// ModelOption tunes one registered model's serving settings; see WithModel.
type ModelOption func(*config)

// modelSpec is one WithModel registration, applied by Open through AddModel.
type modelSpec struct {
	name string
	eng  *qinfer.Engine
	prot *core.Protector
	opts []ModelOption
}

type serviceConfig struct {
	models   []modelSpec
	provider ModelProvider
}

// WithModel registers one model under name at Open, exactly as AddModel
// would on the running service: an int8 engine plus the protector guarding
// the engine's weight image, with its own independently configured runtime
// — batching queue, inference workers, background scrubber and
// verified-fetch verifier — tuned by the ModelOptions. The first model
// registered is the service's default.
func WithModel(name string, eng *qinfer.Engine, prot *core.Protector, opts ...ModelOption) ServiceOption {
	return func(sc *serviceConfig) error {
		sc.models = append(sc.models, modelSpec{name: name, eng: eng, prot: prot, opts: opts})
		return nil
	}
}

// WithScrub sets the background scrub interval, the exposure target of a
// model without traffic (default 100ms; 0 disables the scrubber).
func WithScrub(interval time.Duration) ModelOption {
	return func(c *config) { c.scrubInterval = interval }
}

// WithInputShape pins the model's expected per-request input shape.
func WithInputShape(ch, h, w int) ModelOption {
	return func(c *config) { c.inputShape = []int{ch, h, w} }
}

// ModelProvider materializes a model from a wire-level add request: given
// the name to host it under and an opaque source string (for radar-serve,
// a zoo model name), it builds the engine + protector pair and any
// per-model options. It backs POST /v1/admin/models/{name}; a service
// without a provider answers that route 501.
type ModelProvider func(name, source string) (*qinfer.Engine, *core.Protector, []ModelOption, error)

// WithModelProvider installs the provider the HTTP admin plane uses to
// hot-add models by source name.
func WithModelProvider(p ModelProvider) ServiceOption {
	return func(sc *serviceConfig) error {
		sc.provider = p
		return nil
	}
}

func validModelName(name string) error {
	if name == "" {
		return errors.New("serve: model name must not be empty")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("serve: model name %q not URL-safe (letters, digits, '.', '_', '-')", name)
		}
	}
	return nil
}

// Service is the multi-model serving front-end: a registry of protected
// model runtimes, a bounded async job table, and the versioned HTTP
// control plane (Handler). Build with Open; Close shuts everything down
// gracefully.
type Service struct {
	reg      *registry
	jobs     *jobTable
	provider ModelProvider
	obs      *obs.Registry  // every hosted model's metric families
	traces   *obs.TraceRing // completed request traces, service-wide
	closed   atomic.Bool
}

// Open builds and starts a Service from functional options. At least one
// WithModel is required; every registered model's runtime (workers,
// batcher, scrubber) is started before Open returns, so the service is
// immediately ready to answer Infer/Submit and HTTP traffic. A model that
// fails to register (a bad or duplicate name, a nil engine) stops the ones
// already started and fails Open with AddModel's error.
func Open(opts ...ServiceOption) (*Service, error) {
	var sc serviceConfig
	for _, o := range opts {
		if err := o(&sc); err != nil {
			return nil, err
		}
	}
	if len(sc.models) == 0 {
		return nil, errors.New("serve: Open needs at least one WithModel")
	}
	s := &Service{
		reg:      &registry{byName: make(map[string]*Server, len(sc.models))},
		jobs:     newJobTable(),
		provider: sc.provider,
		obs:      obs.NewRegistry(),
		traces:   obs.NewTraceRing(defaultTraceRingSize),
	}
	for _, m := range sc.models {
		if err := s.AddModel(m.name, m.eng, m.prot, m.opts...); err != nil {
			s.Close()
			return nil, err
		}
	}
	jobs := s.jobs
	s.obs.Gauge("radar_gemm_kernel_info", "The SIMD kernel set the one CPUID probe selected at start-up, for the int8 GEMM and the checksum alike (always 1).", "kernel").
		With(qinfer.GEMMKernel()).Set(1)
	s.obs.Gauge("radar_jobs_active", "Async jobs currently held by the bounded job table.").
		Func(func() float64 { active, _, _ := jobs.stats(); return float64(active) })
	s.obs.Gauge("radar_jobs_capacity", "Async jobs the bounded job table can hold.").With().Set(float64(jobs.cap))
	s.obs.Counter("radar_jobs_submitted_total", "Async jobs accepted over the service lifetime.").
		Func(func() float64 { _, submitted, _ := jobs.stats(); return float64(submitted) })
	s.obs.Counter("radar_jobs_cancelled_total", "Async jobs cancelled before completion.").
		Func(func() float64 { _, _, cancelled := jobs.stats(); return float64(cancelled) })
	return s, nil
}

// Close gracefully stops every hosted model: new submissions fail with
// ErrStopping, queued requests (including pending async jobs) are still
// answered, and the scrubbers exit. Idempotent.
func (s *Service) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	for _, srv := range s.reg.snapshot() {
		srv.Stop()
	}
}

// AddModel hosts a model under name: its runtime (workers, batcher,
// scrubber, verifier), configured by the ModelOptions over the defaults,
// is built and started, then the name is published to the registry, so the
// first request routed to it already finds a live runtime; a Close that
// races the add stops it and fails the add with ErrStopping. The protector
// must protect the quant.Model the engine was compiled from, and the
// engine becomes owned by the service. Names must be non-empty, unique,
// and URL-safe (letters, digits, '.', '_', '-').
func (s *Service) AddModel(name string, eng *qinfer.Engine, prot *core.Protector, opts ...ModelOption) error {
	if s.closed.Load() {
		return ErrStopping
	}
	if err := validModelName(name); err != nil {
		return err
	}
	if eng == nil || prot == nil {
		return fmt.Errorf("serve: model %q needs a non-nil engine and protector", name)
	}
	cfg := newConfig()
	for _, o := range opts {
		o(&cfg)
	}
	srv := newServerIn(eng, prot, cfg, s.obs, name, s.traces)
	srv.Start()
	if err := s.reg.add(srv); err != nil {
		srv.Stop() // name collision: tear the fresh runtime back down
		return err
	}
	// Close sets closed before it snapshots the registry, so an add it
	// did not see is seen here.
	if s.closed.Load() {
		srv.Stop()
		return ErrStopping
	}
	return nil
}

// RemoveModel hot-removes a hosted model: the name is unpublished first
// (new requests fail with ErrUnknownModel), then the runtime drains —
// queued requests are still answered — and stops. The last hosted model
// cannot be removed; removing the default promotes the next-oldest
// registration.
func (s *Service) RemoveModel(name string) error {
	if s.closed.Load() {
		return ErrStopping
	}
	srv, err := s.reg.remove(name)
	if err != nil {
		return err
	}
	srv.Stop()
	// Drop the removed model's series so a scrape no longer reports it; a
	// later AddModel under the same name re-binds fresh children.
	s.obs.Prune("model", name)
	return nil
}

// Infer answers one request synchronously, honoring ctx deadlines and
// cancellation while the input waits in the model's batch queue and while
// the batched forward runs.
func (s *Service) Infer(ctx context.Context, req Request) (InferResult, error) {
	srv, err := s.reg.lookup(req.Model)
	if err != nil {
		return InferResult{}, err
	}
	return srv.inferContext(ctx, req.Input, req.RequestID)
}

// Submit enqueues one request as an async job and returns immediately
// with its ID — no goroutine or connection is parked waiting for the
// result. The enqueue itself never blocks: a full batch queue fails fast
// with ErrQueueFull, and the bounded job table fails with ErrJobsFull.
// ctx governs the job's lifetime, not just the submission: cancelling it
// before the result is computed cancels the job, drops its queued work,
// and reaps it from the table. Pass a background context for
// fire-and-forget jobs.
func (s *Service) Submit(ctx context.Context, req Request) (JobID, error) {
	srv, err := s.reg.lookup(req.Model)
	if err != nil {
		return "", err
	}
	// Every job gets its own cancel handle layered over the submission
	// context, so Cancel (and DELETE /v1/jobs/{id}) can kill it even when
	// the submitter's context never fires.
	jctx, jcancel := context.WithCancel(ctx)
	j, err := s.jobs.create(srv.name, jcancel)
	if err != nil {
		jcancel()
		return "", err
	}
	ch, err := srv.submit(jctx, req.Input, req.RequestID, false)
	if err != nil {
		s.jobs.abort(j.id)
		jcancel()
		return "", err
	}
	s.jobs.accept(j, jctx, ch)
	return j.id, nil
}

// Cancel cancels a pending job — its queued work is dropped before the
// forward pass, its table slot is freed immediately, and any Wait returns
// ErrJobCancelled — and returns the job's final status. Cancelling a job
// that already completed removes it from the table (the DELETE-a-resource
// reading) and reports its terminal "done" state. Unknown, expired or
// already-cancelled IDs return ErrUnknownJob.
func (s *Service) Cancel(id JobID) (JobStatus, error) {
	return s.jobs.cancel(id)
}

// Poll reports a job's current status without blocking. Unknown IDs —
// never submitted, cancelled, or expired past the job TTL — return
// ErrUnknownJob.
func (s *Service) Poll(id JobID) (JobStatus, error) {
	j, err := s.jobs.get(id)
	if err != nil {
		return JobStatus{}, err
	}
	return s.jobs.status(j), nil
}

// Wait blocks until the job completes (returning its InferResult), the job is
// cancelled (ErrJobCancelled), or ctx is done. The job stays pollable
// after Wait until its TTL expires. A Wait that begins after a cancelled
// job was already reaped sees ErrUnknownJob instead, like any lookup of
// a reaped ID.
func (s *Service) Wait(ctx context.Context, id JobID) (InferResult, error) {
	j, err := s.jobs.get(id)
	if err != nil {
		return InferResult{}, err
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return InferResult{}, ctx.Err()
	}
	st := s.jobs.status(j)
	if st.State == JobCancelled || st.Result == nil {
		return InferResult{}, ErrJobCancelled
	}
	return *st.Result, nil
}

// Models snapshots every hosted model's identity, configuration and
// health, in registration order.
func (s *Service) Models() []ModelInfo {
	srvs := s.reg.snapshot()
	out := make([]ModelInfo, 0, len(srvs))
	for _, srv := range srvs {
		out = append(out, srv.info())
	}
	return out
}

// Scrub forces one scrub cycle on the named model, or on every model when
// name is empty, and reports what each cycle found. full checks every
// layer now; otherwise the cycle is one scrubber tick (see Server.Scrub).
func (s *Service) Scrub(model string, full bool) ([]AdminReport, error) {
	var out []AdminReport
	err := s.reg.each(model, func(srv *Server) {
		flagged, zeroed := srv.Scrub(full)
		out = append(out, AdminReport{Model: srv.name, Flagged: len(flagged), Zeroed: zeroed})
	})
	return out, err
}

// Rekey rotates the named model's protection secrets live (every model
// when name is empty): a full scrub first, then fresh per-layer keys and
// offsets with all golden signatures recomputed under whole-model write
// exclusion. Traffic keeps flowing; only the exclusive recompute itself
// briefly stalls fetches.
func (s *Service) Rekey(model string) ([]AdminReport, error) {
	var out []AdminReport
	err := s.reg.each(model, func(srv *Server) { out = append(out, srv.rekey()) })
	return out, err
}

// Inject runs an adversary against the named model's live weight image
// under whole-model write exclusion (empty name: default model) — the
// attack-injection hook tests and benchmarks mount flips through.
func (s *Service) Inject(model string, f func(*quant.Model)) error {
	srv, err := s.reg.lookup(model)
	if err != nil {
		return err
	}
	srv.Inject(f)
	return nil
}

// InjectAdversary plans and mounts one volley of the named adversary
// (see internal/adversary) against the named model's live weight image —
// or, for the sigstore adversary, against its golden-signature store —
// under whole-model write exclusion (empty model: default model). The
// smoke and chaos tooling uses it to exercise the recovery paths end to
// end through HTTP.
func (s *Service) InjectAdversary(model, adversary string, flips int, seed int64) (InjectReport, error) {
	srv, err := s.reg.lookup(model)
	if err != nil {
		return InjectReport{}, err
	}
	return srv.injectAdversary(adversary, flips, seed)
}

// WriteMetrics writes every hosted model's series (plus the service-wide
// job-table figures) in the Prometheus text exposition format — the body
// of GET /v1/metrics. Safe under full traffic: instruments are atomics and
// the exposition only read-locks family bookkeeping.
func (s *Service) WriteMetrics(w io.Writer) (int64, error) {
	return s.obs.WriteTo(w)
}
