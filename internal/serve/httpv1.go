package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"radar/internal/obs"
)

// JobRef answers POST /v1/models/{name}/jobs: the accepted job's identity
// and where to poll it.
type JobRef struct {
	ID    JobID  `json:"id"`
	Model string `json:"model"`
	// Location is the polling route for this job.
	Location string `json:"location"`
}

// ModelsResponse is the body of GET /v1/models.
type ModelsResponse struct {
	Models []ModelInfo `json:"models"`
}

// adminRequest is the body of POST /v1/admin/scrub and /v1/admin/rekey.
// An empty Model targets every hosted model.
type adminRequest struct {
	Model string `json:"model,omitempty"`
	// Full checks every layer now, not just those a tick finds stale (scrub only).
	Full bool `json:"full,omitempty"`
}

// adminResponse answers the admin routes with one report per model acted on.
type adminResponse struct {
	Results []AdminReport `json:"results"`
}

// Handler returns the versioned HTTP front-end of the whole service:
//
//	POST   /v1/models/{model}/infer  — sync inference (honors client disconnect)
//	POST   /v1/models/{model}/jobs   — submit an async job, 202 + job ID
//	GET    /v1/jobs/{id}             — poll a job; result once state is "done"
//	DELETE /v1/jobs/{id}             — cancel a job, dropping queued work
//	GET    /v1/models                — hosted models, configuration, health
//	GET    /v1/models/{model}        — one model's info
//	POST   /v1/admin/scrub           — force a scrub cycle ({"model","full"})
//	POST   /v1/admin/rekey           — rotate protection secrets live ({"model"})
//	POST   /v1/admin/models/{name}   — hot-add a model ({"source"}; needs a provider)
//	DELETE /v1/admin/models/{name}   — hot-remove a model (drains first)
//	POST   /v1/admin/inject          — mount an adversary volley ({"model","adversary","flips","seed"})
//	GET    /v1/metrics               — Prometheus text exposition, all models
//	GET    /v1/debug/traces          — recent per-request stage traces (?n=K)
//
// The pre-v1 shims (POST /infer, GET /healthz, GET /metrics) were removed
// after their one-release deprecation window; only the /v1 surface is
// served (metrics now live under the versioned path).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/models/{model}/infer", s.handleInferV1)
	mux.HandleFunc("POST /v1/models/{model}/jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /v1/models/{model}", s.handleModel)
	mux.HandleFunc("POST /v1/admin/scrub", handleAdmin(func(q adminRequest) ([]AdminReport, error) { return s.Scrub(q.Model, q.Full) }))
	mux.HandleFunc("POST /v1/admin/rekey", handleAdmin(func(q adminRequest) ([]AdminReport, error) { return s.Rekey(q.Model) }))
	mux.HandleFunc("POST /v1/admin/inject", s.handleInject)
	mux.HandleFunc("POST /v1/admin/models/{name}", s.handleAddModel)
	mux.HandleFunc("DELETE /v1/admin/models/{name}", s.handleRemoveModel)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/debug/traces", s.handleTraces)
	return mux
}

// httpError maps the service's typed errors onto wire status codes:
// unknown model/job → 404, duplicate/last model → 409, stopping → 503 +
// Retry-After, saturated queue or job table → 429 + Retry-After, a body over
// its cap → 413, anything else (malformed tensors, bad shapes) → 400.
func httpError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
	case errors.Is(err, ErrUnknownModel), errors.Is(err, ErrUnknownJob):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ErrModelExists), errors.Is(err, ErrLastModel):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, ErrStopping):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrJobsFull):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away or ran out its deadline mid-request; the
		// response is mostly moot but keep the mapping honest.
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func (s *Service) handleInferV1(w http.ResponseWriter, r *http.Request) {
	srv, err := s.reg.lookup(r.PathValue("model"))
	if err != nil {
		httpError(w, err)
		return
	}
	srv.serveInfer(w, r)
}

func (s *Service) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	srv, err := s.reg.lookup(r.PathValue("model"))
	if err != nil {
		httpError(w, err)
		return
	}
	inputs, err := srv.decodeInferRequest(w, r)
	if err != nil {
		httpError(w, err)
		return
	}
	if len(inputs) != 1 {
		httpError(w, errors.New("a job carries exactly one input"))
		return
	}
	// The job must outlive this HTTP exchange: detach it from the request
	// context. Cancellation is explicit — DELETE /v1/jobs/{id} tears down
	// the per-job context layer Submit installs on top of this one.
	id, err := s.Submit(context.WithoutCancel(r.Context()),
		Request{Model: srv.name, Input: inputs[0], RequestID: requestID(w, r)})
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSONStatus(w, http.StatusAccepted,
		JobRef{ID: id, Model: srv.name, Location: "/v1/jobs/" + string(id)})
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	st, err := s.Poll(JobID(r.PathValue("id")))
	if err != nil {
		httpError(w, err)
		return
	}
	writeCompactJSON(w, st)
}

func (s *Service) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(JobID(r.PathValue("id")))
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, st)
}

func (s *Service) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, ModelsResponse{Models: s.Models()})
}

func (s *Service) handleModel(w http.ResponseWriter, r *http.Request) {
	srv, err := s.reg.lookup(r.PathValue("model"))
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, srv.info())
}

// handleAdmin serves an admin route: an adminRequest in, op's reports out.
func handleAdmin(op func(adminRequest) ([]AdminReport, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req adminRequest
		if err := decodeBody(w, r, &req); err != nil {
			httpError(w, err)
			return
		}
		reports, err := op(req)
		if err != nil {
			httpError(w, err)
			return
		}
		writeJSON(w, adminResponse{Results: reports})
	}
}

// injectRequest is the body of POST /v1/admin/inject: which adversary to
// run against which model (empty: default model), its flip budget, and
// the plan seed (0 = fixed default plan).
type injectRequest struct {
	Model     string `json:"model,omitempty"`
	Adversary string `json:"adversary"`
	Flips     int    `json:"flips"`
	Seed      int64  `json:"seed,omitempty"`
}

func (s *Service) handleInject(w http.ResponseWriter, r *http.Request) {
	var req injectRequest
	if err := decodeBody(w, r, &req); err != nil {
		httpError(w, err)
		return
	}
	if req.Flips <= 0 {
		httpError(w, fmt.Errorf("serve: inject needs a positive flip budget, got %d", req.Flips))
		return
	}
	rep, err := s.InjectAdversary(req.Model, req.Adversary, req.Flips, req.Seed)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, rep)
}

// addModelRequest is the body of POST /v1/admin/models/{name}: the opaque
// source string the installed ModelProvider resolves (for radar-serve, a
// zoo model name).
type addModelRequest struct {
	Source string `json:"source"`
}

func (s *Service) handleAddModel(w http.ResponseWriter, r *http.Request) {
	if s.provider == nil {
		http.Error(w, "serve: no model provider configured", http.StatusNotImplemented)
		return
	}
	name := r.PathValue("name")
	var req addModelRequest
	if err := decodeBody(w, r, &req); err != nil {
		httpError(w, err)
		return
	}
	if err := validModelName(name); err != nil {
		httpError(w, err)
		return
	}
	// Reserve the name before the provider runs: a hosted or concurrently
	// adding name 409s here, so the provider's side effects (radar-serve
	// remaps the store checkpoint under this name) never touch a model
	// that is already serving.
	if err := s.reg.reserve(name); err != nil {
		httpError(w, err)
		return
	}
	defer s.reg.release(name)
	eng, prot, opts, err := s.provider(name, req.Source)
	if err != nil {
		httpError(w, err)
		return
	}
	if err := s.AddModel(name, eng, prot, opts...); err != nil {
		httpError(w, err)
		return
	}
	srv, err := s.reg.lookup(name)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSONStatus(w, http.StatusCreated, srv.info())
}

func (s *Service) handleRemoveModel(w http.ResponseWriter, r *http.Request) {
	if err := s.RemoveModel(r.PathValue("name")); err != nil {
		httpError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ExpositionContentType)
	s.WriteMetrics(w)
}

// TracesResponse is the body of GET /v1/debug/traces: the retained traces
// (newest first) with summary latency quantiles over them.
type TracesResponse struct {
	Count  int         `json:"count"`
	P50Ms  float64     `json:"p50_ms"`
	P99Ms  float64     `json:"p99_ms"`
	Traces []obs.Trace `json:"traces"`
}

// NewTracesResponse summarizes a trace dump: nearest-rank p50/p99 over the
// traces' total latencies. Exported because the fleet router reuses it
// after merging the replicas' dumps.
func NewTracesResponse(traces []obs.Trace) TracesResponse {
	samples := make([]time.Duration, len(traces))
	for i, t := range traces {
		samples[i] = time.Duration(t.TotalMs * float64(time.Millisecond))
	}
	qs := quantiles(samples, 0.50, 0.99)
	return TracesResponse{
		Count:  len(traces),
		P50Ms:  float64(qs[0]) / float64(time.Millisecond),
		P99Ms:  float64(qs[1]) / float64(time.Millisecond),
		Traces: traces,
	}
}

func (s *Service) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := 32
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			httpError(w, fmt.Errorf("bad n %q: want a positive integer", raw))
			return
		}
		n = v
	}
	writeJSON(w, NewTracesResponse(s.traces.Last(n)))
}
