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

// ModelOption tunes one registered model's serving Config; see WithModel.
type ModelOption func(*Config)

type modelSpec struct {
	name string
	eng  *qinfer.Engine
	prot *core.Protector
	cfg  Config
}

type serviceConfig struct {
	models   []modelSpec
	jobCap   int
	jobTTL   time.Duration
	provider ModelProvider
}

// DefaultJobCapacity bounds the async job table when WithJobCapacity is
// not given.
const DefaultJobCapacity = 1024

// DefaultJobTTL is how long a completed job's result stays pollable when
// WithJobTTL is not given.
const DefaultJobTTL = time.Minute

// WithModel registers one model under name: an int8 engine plus the
// protector guarding the engine's weight image (the protector must
// protect the same quant.Model the engine was compiled from — same
// contract as New). Each model gets its own independently configured
// runtime — batching queue, inference workers, background scrubber and
// verified-fetch verifier — tuned by the ModelOptions. Names must be
// non-empty, unique, and URL-safe (letters, digits, '.', '_', '-'); the
// first model registered is the service's default.
func WithModel(name string, eng *qinfer.Engine, prot *core.Protector, opts ...ModelOption) ServiceOption {
	return func(sc *serviceConfig) error {
		if err := validModelName(name); err != nil {
			return err
		}
		if eng == nil || prot == nil {
			return fmt.Errorf("serve: model %q needs a non-nil engine and protector", name)
		}
		cfg := DefaultConfig()
		for _, o := range opts {
			o(&cfg)
		}
		sc.models = append(sc.models, modelSpec{name: name, eng: eng, prot: prot, cfg: cfg})
		return nil
	}
}

// WithConfig replaces the model's whole serving Config (unset fields are
// filled with defaults). Later ModelOptions still apply on top.
func WithConfig(cfg Config) ModelOption {
	return func(c *Config) { *c = cfg }
}

// WithScrub sets the background scrub interval, the exposure target of a
// model without traffic (0 disables the scrubber).
func WithScrub(interval time.Duration) ModelOption {
	return func(c *Config) { c.ScrubInterval = interval }
}

// WithInputShape pins the model's expected per-request input shape.
func WithInputShape(ch, h, w int) ModelOption {
	return func(c *Config) { c.InputShape = []int{ch, h, w} }
}

// WithJobCapacity bounds the async job table (default DefaultJobCapacity).
// Submissions beyond it fail with ErrJobsFull instead of growing memory.
func WithJobCapacity(n int) ServiceOption {
	return func(sc *serviceConfig) error {
		if n <= 0 {
			return fmt.Errorf("serve: job capacity %d, want > 0", n)
		}
		sc.jobCap = n
		return nil
	}
}

// WithJobTTL sets how long completed jobs stay pollable before they are
// reaped (default DefaultJobTTL).
func WithJobTTL(d time.Duration) ServiceOption {
	return func(sc *serviceConfig) error {
		if d <= 0 {
			return fmt.Errorf("serve: job TTL %v, want > 0", d)
		}
		sc.jobTTL = d
		return nil
	}
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
	reg      *Registry
	jobs     *jobTable
	provider ModelProvider
	obs      *obs.Registry  // every hosted model's metric families
	traces   *obs.TraceRing // completed request traces, service-wide
	closed   atomic.Bool
}

// Open builds and starts a Service from functional options. At least one
// WithModel is required; every registered model's runtime (workers,
// batcher, scrubber) is started before Open returns, so the service is
// immediately ready to answer Infer/Submit and HTTP traffic.
func Open(opts ...ServiceOption) (*Service, error) {
	sc := serviceConfig{jobCap: DefaultJobCapacity, jobTTL: DefaultJobTTL}
	for _, o := range opts {
		if err := o(&sc); err != nil {
			return nil, err
		}
	}
	if len(sc.models) == 0 {
		return nil, errors.New("serve: Open needs at least one WithModel")
	}
	mreg := obs.NewRegistry()
	traces := obs.NewTraceRing(defaultTraceRingSize)
	reg := &Registry{byName: make(map[string]*hostedModel, len(sc.models))}
	for _, ms := range sc.models {
		hm := &hostedModel{
			name: ms.name,
			eng:  ms.eng,
			prot: ms.prot,
			srv:  newServerIn(ms.eng, ms.prot, ms.cfg, mreg, ms.name, traces),
		}
		if err := reg.add(hm); err != nil {
			return nil, err
		}
	}
	for _, hm := range reg.snapshot() {
		hm.srv.Start()
	}
	jobs := newJobTable(sc.jobCap, sc.jobTTL)
	mreg.Gauge("radar_gemm_kernel_info", "The int8 GEMM kernel CPUID selected at start-up (always 1).", "kernel").
		With(qinfer.GEMMKernel()).Set(1)
	mreg.Gauge("radar_jobs_active", "Async jobs currently held by the bounded job table.").
		Func(func() float64 { active, _ := jobs.stats(); return float64(active) })
	mreg.Counter("radar_jobs_submitted_total", "Async jobs accepted over the service lifetime.").
		Func(func() float64 { _, submitted := jobs.stats(); return float64(submitted) })
	mreg.Counter("radar_jobs_cancelled_total", "Async jobs cancelled before completion.").
		Func(func() float64 { return float64(jobs.cancelledCount()) })
	return &Service{reg: reg, jobs: jobs, provider: sc.provider, obs: mreg, traces: traces}, nil
}

// Close gracefully stops every hosted model: new submissions fail with
// ErrStopping, queued requests (including pending async jobs) are still
// answered, and the scrubbers exit. Idempotent.
func (s *Service) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	for _, hm := range s.reg.snapshot() {
		hm.srv.Stop()
	}
}

// AddModel hot-adds a model to a running service: the runtime (workers,
// batcher, scrubber, verifier) is built and started exactly as in Open,
// then the name is published to the registry, so the first request routed
// to it already finds a live runtime. Same contract as WithModel: the
// protector must protect the quant.Model the engine was compiled from,
// and the engine becomes owned by the service.
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
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	hm := &hostedModel{name: name, eng: eng, prot: prot, srv: newServerIn(eng, prot, cfg, s.obs, name, s.traces)}
	hm.srv.Start()
	if err := s.reg.add(hm); err != nil {
		hm.srv.Stop() // name collision: tear the fresh runtime back down
		return err
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
	hm, err := s.reg.remove(name)
	if err != nil {
		return err
	}
	hm.srv.Stop()
	// Drop the removed model's series so a scrape no longer reports it; a
	// later AddModel under the same name re-binds fresh children.
	s.obs.Prune("model", name)
	return nil
}

// Infer answers one request synchronously, honoring ctx deadlines and
// cancellation while the input waits in the model's batch queue and while
// the batched forward runs.
func (s *Service) Infer(ctx context.Context, req Request) (Result, error) {
	hm, err := s.reg.lookup(req.Model)
	if err != nil {
		return Result{}, err
	}
	return hm.srv.inferContext(ctx, req.Input, req.RequestID)
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
	hm, err := s.reg.lookup(req.Model)
	if err != nil {
		return "", err
	}
	// Every job gets its own cancel handle layered over the submission
	// context, so Cancel (and DELETE /v1/jobs/{id}) can kill it even when
	// the submitter's context never fires.
	jctx, jcancel := context.WithCancel(ctx)
	j, err := s.jobs.create(hm.name, jcancel)
	if err != nil {
		jcancel()
		return "", err
	}
	ch, err := hm.srv.trySubmit(jctx, req.Input, req.RequestID)
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

// Wait blocks until the job completes (returning its Result), the job is
// cancelled (ErrJobCancelled), or ctx is done. The job stays pollable
// after Wait until its TTL expires. A Wait that begins after a cancelled
// job was already reaped sees ErrUnknownJob instead, like any lookup of
// a reaped ID.
func (s *Service) Wait(ctx context.Context, id JobID) (Result, error) {
	j, err := s.jobs.get(id)
	if err != nil {
		return Result{}, err
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
	st := s.jobs.status(j)
	if st.State == JobCancelled || st.Result == nil {
		return Result{}, ErrJobCancelled
	}
	return *st.Result, nil
}

// Models snapshots every hosted model's identity, configuration and
// health, in registration order.
func (s *Service) Models() []ModelInfo {
	hms := s.reg.snapshot()
	out := make([]ModelInfo, 0, len(hms))
	for _, hm := range hms {
		out = append(out, hm.info())
	}
	return out
}

// Scrub forces one scrub cycle on the named model, or on every model when
// name is empty, and reports what each cycle found. full checks every
// layer now; otherwise the cycle is one scrubber tick (see Server.Scrub).
func (s *Service) Scrub(model string, full bool) ([]AdminReport, error) {
	var out []AdminReport
	err := s.reg.each(model, func(hm *hostedModel) error {
		flagged, zeroed := hm.srv.Scrub(full)
		out = append(out, AdminReport{Model: hm.name, Flagged: len(flagged), Zeroed: zeroed})
		return nil
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
	err := s.reg.each(model, func(hm *hostedModel) error {
		out = append(out, hm.rekey())
		return nil
	})
	return out, err
}

// Inject runs an adversary against the named model's live weight image
// under whole-model write exclusion (empty name: default model) — the
// attack-injection hook tests and benchmarks mount flips through.
func (s *Service) Inject(model string, f func(*quant.Model)) error {
	hm, err := s.reg.lookup(model)
	if err != nil {
		return err
	}
	hm.inject(f)
	return nil
}

// InjectAdversary plans and mounts one volley of the named adversary
// (see internal/adversary) against the named model's live weight image —
// or, for the sigstore adversary, against its golden-signature store —
// under whole-model write exclusion (empty model: default model). The
// smoke and chaos tooling uses it to exercise the recovery paths end to
// end through HTTP.
func (s *Service) InjectAdversary(model, adversary string, flips int, seed int64) (InjectReport, error) {
	hm, err := s.reg.lookup(model)
	if err != nil {
		return InjectReport{}, err
	}
	return hm.injectAdversary(adversary, flips, seed)
}

// Protector exposes the named model's protector (empty name: default
// model), e.g. for stats or a quiesced final sweep in tests.
func (s *Service) Protector(model string) (*core.Protector, error) {
	hm, err := s.reg.lookup(model)
	if err != nil {
		return nil, err
	}
	return hm.prot, nil
}

// WriteMetrics writes every hosted model's series (plus the service-wide
// job-table figures) in the Prometheus text exposition format — the body
// of GET /v1/metrics. Safe under full traffic: instruments are atomics and
// the exposition only read-locks family bookkeeping.
func (s *Service) WriteMetrics(w io.Writer) (int64, error) {
	return s.obs.WriteTo(w)
}

// MetricNames returns every registered metric family name, in
// registration order — what the naming-lint test checks.
func (s *Service) MetricNames() []string {
	return s.obs.Names()
}

// Traces returns up to n completed request traces, newest first (n <= 0:
// all retained). Only requests carrying a RequestID (every HTTP request;
// Go-API calls that set Request.RequestID) are traced.
func (s *Service) Traces(n int) []obs.Trace {
	return s.traces.Last(n)
}
