package radar

import (
	"time"

	"radar/internal/nn"
	"radar/internal/qinfer"
	"radar/internal/serve"
	"radar/internal/tensor"
)

// This file re-exports the stable serving surface: the context-aware,
// multi-model protected inference service built in internal/serve. The
// typical deployment round trip:
//
//	eng, _ := qinfer.Compile(net, qm, calib)
//	p := radar.Protect(qm, radar.DefaultConfig(8))
//	svc, _ := radar.OpenService(
//		radar.WithServedModel("resnet20", eng, p,
//			radar.ServeInputShape(3, 32, 32)),
//	)
//	defer svc.Close()
//	res, _ := svc.Infer(ctx, radar.ServeRequest{Model: "resnet20", Input: x})
//	id, _ := svc.Submit(ctx, radar.ServeRequest{Model: "resnet20", Input: x}) // async
//	res, _ = svc.Wait(ctx, id)
//
// svc.Handler() serves the versioned HTTP control plane
// (/v1/models/{name}/infer, /v1/models/{name}/jobs, /v1/jobs/{id},
// /v1/models, /v1/admin/scrub, /v1/admin/rekey,
// /v1/admin/models/{name}). Multiple services scale out behind the
// radar-fleet consistent-hash router (internal/fleet), which exposes the
// identical /v1 surface.

// Engine is the compiled int8 inference engine a served model runs on;
// see qinfer.Engine.
type Engine = qinfer.Engine

// CompileEngine converts a trained float network plus its quantized
// weight image into an int8 engine, calibrating activation scales on the
// given representative batch; see qinfer.Compile.
func CompileEngine(net *nn.Sequential, qm *QuantModel, calib *tensor.Tensor) (*Engine, error) {
	return qinfer.Compile(net, qm, calib)
}

// Service is the multi-model protected inference front-end; see
// serve.Service.
type Service = serve.Service

// ServeRequest addresses one inference input to a hosted model.
type ServeRequest = serve.Request

// ServeResult is one request's answer (argmax class + logits).
type ServeResult = serve.Result

// ServeConfig tunes one hosted model's runtime; see serve.Config.
type ServeConfig = serve.Config

// ServeSnapshot is a model's live metrics export; see serve.Snapshot.
type ServeSnapshot = serve.Snapshot

// ServedModelInfo is one hosted model's identity + metrics entry.
type ServedModelInfo = serve.ModelInfo

// ServeAdminReport is one model's answer to an admin scrub or rekey.
type ServeAdminReport = serve.AdminReport

// ServiceOption configures OpenService; ModelServeOption tunes one
// registered model.
type (
	ServiceOption    = serve.ServiceOption
	ModelServeOption = serve.ModelOption
)

// JobID and JobStatus identify and describe async inference jobs.
type (
	JobID     = serve.JobID
	JobStatus = serve.JobStatus
)

// ServeModelProvider builds a model runtime on demand for hot-add; see
// serve.ModelProvider.
type ServeModelProvider = serve.ModelProvider

// WithServeModelProvider installs the provider backing hot model adds
// (POST /v1/admin/models/{name} and Service.AddModel).
func WithServeModelProvider(p ServeModelProvider) ServiceOption {
	return serve.WithModelProvider(p)
}

// Serving errors, all errors.Is-able.
var (
	// ErrModelExists: hot-add named an already hosted model (409).
	ErrModelExists = serve.ErrModelExists
	// ErrLastModel: hot-remove would empty the service (409).
	ErrLastModel = serve.ErrLastModel
	// ErrStopping: submission raced a graceful shutdown (HTTP: 503).
	ErrStopping = serve.ErrStopping
	// ErrQueueFull: non-blocking async submit hit a full batch queue (429).
	ErrQueueFull = serve.ErrQueueFull
	// ErrJobsFull: the bounded async job table is at capacity (429).
	ErrJobsFull = serve.ErrJobsFull
	// ErrUnknownModel: the request named an unhosted model (404).
	ErrUnknownModel = serve.ErrUnknownModel
	// ErrUnknownJob: unknown, cancelled, or expired job ID (404).
	ErrUnknownJob = serve.ErrUnknownJob
	// ErrJobCancelled: Wait on a job whose context was cancelled.
	ErrJobCancelled = serve.ErrJobCancelled
)

// OpenService builds and starts a multi-model protected inference service
// from functional options (at least one WithServedModel).
func OpenService(opts ...ServiceOption) (*Service, error) { return serve.Open(opts...) }

// WithServedModel registers one model: an int8 engine plus the protector
// guarding its weight image, under a unique URL-safe name. The first
// model registered is the service default.
func WithServedModel(name string, eng *qinfer.Engine, prot *Protector, opts ...ModelServeOption) ServiceOption {
	return serve.WithModel(name, eng, prot, opts...)
}

// WithJobCapacity bounds the async job table.
func WithJobCapacity(n int) ServiceOption { return serve.WithJobCapacity(n) }

// WithJobTTL sets completed-job retention for polling.
func WithJobTTL(d time.Duration) ServiceOption { return serve.WithJobTTL(d) }

// ServeWithConfig replaces a model's whole serving Config.
func ServeWithConfig(cfg ServeConfig) ModelServeOption { return serve.WithConfig(cfg) }

// ServeBatch sets a model's max batch size.
func ServeBatch(maxBatch int) ModelServeOption { return serve.WithBatch(maxBatch) }

// ServeWorkers sets a model's inference worker count.
func ServeWorkers(n int) ModelServeOption { return serve.WithWorkers(n) }

// ServeQueueDepth bounds a model's pending-request queue.
func ServeQueueDepth(n int) ModelServeOption { return serve.WithQueueDepth(n) }

// ServeVerifiedFetch toggles per-layer verification at weight-fetch time.
func ServeVerifiedFetch(on bool) ModelServeOption { return serve.WithVerifiedFetch(on) }

// ServeScrub sets a model's background scrub interval (0 disables).
func ServeScrub(interval time.Duration) ModelServeOption { return serve.WithScrub(interval) }

// ServeInputShape pins a model's expected (C, H, W) input shape.
func ServeInputShape(c, h, w int) ModelServeOption { return serve.WithInputShape(c, h, w) }
