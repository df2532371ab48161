package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"radar/internal/obs"
	"radar/internal/tensor"
)

// InferRequest is the JSON body of POST /v1/models/{model}/infer: either
// a single input or a list of inputs, each a flat float array of volume
// C·H·W. Shape defaults to the model's configured input shape.
type InferRequest struct {
	// Input is a single flattened (C,H,W) image.
	Input []float32 `json:"input,omitempty"`
	// Inputs holds several flattened images; they are submitted together
	// and batched by the server.
	Inputs [][]float32 `json:"inputs,omitempty"`
	// Shape is the per-input shape (C,H,W); optional when the server was
	// configured with one.
	Shape []int `json:"shape,omitempty"`
}

// InferResponse is the JSON body answering the sync inference route.
type InferResponse struct {
	Results []InferResult `json:"results"`
}

// MaxBodyBytes caps every JSON request body (inference, job submit,
// admin) a replica reads and every body the fleet router buffers for
// failover replay: a replica is also reached directly, and an uncapped
// read lets one client stream an endless array or string into the heap.
const MaxBodyBytes = 8 << 20

// decodeBody parses r's JSON body into v, reading at most
// MaxBodyBytes of it (beyond that: *http.MaxBytesError, a 413).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v); err != nil {
		return fmt.Errorf("bad JSON: %w", err)
	}
	return nil
}

// decodeInferRequest parses an InferRequest body into per-input tensors
// against the server's configured shape (or the request's override).
func (s *Server) decodeInferRequest(w http.ResponseWriter, r *http.Request) ([]*tensor.Tensor, error) {
	var body bytes.Buffer
	body.Grow(int(min(max(r.ContentLength, 0), MaxBodyBytes)) + bytes.MinRead)
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes)); err != nil {
		return nil, fmt.Errorf("bad JSON: %w", err)
	}
	req, err := parseInferRequest(body.Bytes())
	if err != nil {
		return nil, fmt.Errorf("bad JSON: %w", err)
	}
	inputs := req.Inputs
	if len(req.Input) > 0 {
		inputs = append([][]float32{req.Input}, inputs...)
	}
	if len(inputs) == 0 {
		return nil, errors.New("no inputs")
	}
	shape := req.Shape
	if len(shape) == 0 {
		shape = s.cfg.inputShape
	}
	if len(shape) != 3 {
		return nil, errors.New("shape must be (C,H,W)")
	}
	out := make([]*tensor.Tensor, len(inputs))
	for i, in := range inputs {
		if err := checkShape(shape, len(in)); err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
		out[i] = tensor.FromSlice(in, shape...) // the decoded slice is this request's own
	}
	return out, nil
}

// RequestIDHeader carries the request id the router generates (or the
// client supplies) through router → replica → batch queue → worker; the
// replica echoes it on the response and keys the request's trace on it.
const RequestIDHeader = "X-Request-Id"

// requestID returns r's X-Request-Id, minting one when absent, and echoes
// it on the response so the caller can correlate its trace.
func requestID(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get(RequestIDHeader)
	if id == "" {
		id = obs.NewRequestID()
	}
	w.Header().Set(RequestIDHeader, id)
	return id
}

// serveInfer is the sync-inference handler body behind
// POST /v1/models/{model}/infer: submit everything first (so a
// multi-input request fills batches), then collect in order, all under
// the client's request context. Errors map through httpError
// (400/413/429/503+Retry-After).
func (s *Server) serveInfer(w http.ResponseWriter, r *http.Request) {
	inputs, err := s.decodeInferRequest(w, r)
	if err != nil {
		httpError(w, err)
		return
	}
	id := requestID(w, r)
	ctx := r.Context()
	chans := make([]<-chan InferResult, len(inputs))
	for i, x := range inputs {
		ch, err := s.submit(ctx, x, id, true)
		if err != nil {
			httpError(w, err)
			return
		}
		chans[i] = ch
	}
	resp := InferResponse{Results: make([]InferResult, len(chans))}
	for i, ch := range chans {
		select {
		case resp.Results[i] = <-ch:
		case <-ctx.Done():
			httpError(w, ctx.Err())
			return
		}
	}
	writeCompactJSON(w, resp)
}

// writeCompactJSON answers the data plane (sync results, job results):
// bodies machines decode, on the path whose bytes every request pays for.
func writeCompactJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// writeJSON answers the listing and admin routes indented: operators read
// them and the smoke scripts grep them.
func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

// writeJSONStatus is writeJSON with a chosen status: the Content-Type
// header must land before WriteHeader freezes the header set.
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// ListenAndServe serves h on addr until SIGINT or SIGTERM, behind
// LogRequests when logRequests is set and with net/http/pprof on debugAddr
// when that is not empty, then shuts the listener down (in-flight requests
// get 10 s) and returns nil. It returns the listener's error when addr
// cannot be served. radar-serve and radar-fleet both run on it.
func ListenAndServe(addr, debugAddr string, logRequests bool, h http.Handler) error {
	if logRequests {
		h = LogRequests(h, slog.Default())
	}
	if debugAddr != "" {
		go func() {
			log.Printf("pprof on %s/debug/pprof/", debugAddr)
			if err := http.ListenAndServe(debugAddr, obs.PprofHandler()); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}
	srv := &http.Server{Addr: addr, Handler: h}
	failed := make(chan error, 1)
	go func() { failed <- srv.ListenAndServe() }()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-failed:
		return fmt.Errorf("http: %w", err)
	case <-ctx.Done():
	}
	log.Printf("shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	return nil
}
