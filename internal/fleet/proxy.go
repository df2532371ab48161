package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"radar/internal/obs"
	"radar/internal/serve"
)

// Handler returns the fleet's HTTP front-end. The data-plane routes
// mirror a single replica's /v1 surface exactly — clients cannot tell a
// fleet from one radar-serve — plus GET /v1/fleet for the router's view:
//
//	POST   /v1/models/{model}/infer  — routed by ring owner, retried on failover
//	POST   /v1/models/{model}/jobs   — routed by owner, not replayed
//	GET    /v1/jobs/{id}             — routed by the ID's replica tag
//	DELETE /v1/jobs/{id}             — routed by the ID's replica tag
//	GET    /v1/models                — merged listing with per-model owners
//	GET    /v1/models/{model}        — routed by owner, retried on failover
//	POST   /v1/admin/scrub           — broadcast to every in-ring replica
//	POST   /v1/admin/rekey           — zero-downtime rolling rekey
//	POST   /v1/admin/models/{name}   — broadcast hot-add
//	DELETE /v1/admin/models/{name}   — broadcast hot-remove
//	GET    /v1/fleet                 — replica health, ring membership
//	GET    /v1/metrics               — router series + replica-labelled scrape
//	GET    /v1/debug/traces          — merged per-stage traces, fleet-wide
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/models/{model}/infer", f.handleRead)
	mux.HandleFunc("POST /v1/models/{model}/jobs", f.handleSubmitJob)
	mux.HandleFunc("GET /v1/jobs/{id}", f.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", f.handleJob)
	mux.HandleFunc("GET /v1/models", f.handleModels)
	mux.HandleFunc("GET /v1/models/{model}", f.handleRead)
	mux.HandleFunc("POST /v1/admin/scrub", f.handleBroadcastAdmin)
	mux.HandleFunc("POST /v1/admin/rekey", f.handleRollingRekey)
	mux.HandleFunc("POST /v1/admin/models/{name}", f.handleBroadcastModel)
	mux.HandleFunc("DELETE /v1/admin/models/{name}", f.handleBroadcastModel)
	mux.HandleFunc("GET /v1/fleet", f.handleFleet)
	mux.HandleFunc("GET /v1/metrics", f.handleMetrics)
	mux.HandleFunc("GET /v1/debug/traces", f.handleTraces)
	// The router originates the request id when the client sent none, so
	// every hop — router log, replica trace, response header — shares one
	// id; the per-route counter reads the matched pattern after dispatch.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(serve.RequestIDHeader)
		if id == "" {
			id = obs.NewRequestID()
			r.Header.Set(serve.RequestIDHeader, id)
		}
		w.Header().Set(serve.RequestIDHeader, id)
		mux.ServeHTTP(w, r)
		route := r.Pattern
		if route == "" {
			route = "unmatched"
		}
		f.met.requests.With(route).Inc()
	})
}

// readBody buffers the request body so it can be replayed on failover,
// capped at Config.MaxBodyBytes — an unbounded client body would be held
// in router memory for the whole retry loop. On overflow the client gets
// 413 and the handler must return; other read errors answer 400.
func (f *Fleet) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	defer r.Body.Close()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, f.cfg.MaxBodyBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, fmt.Sprintf("fleet: request body exceeds %d bytes", f.cfg.MaxBodyBytes),
				http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return nil, false
	}
	return body, true
}

// clientGone reports whether a client.Do failure was caused by the
// inbound request's own context — the client hung up or timed out — not
// by the replica. Such failures say nothing about replica health: they
// must not eject it, and replaying against another owner would fail with
// the same dead context. An attempt-deadline expiry is NOT client-gone:
// the client is still waiting, the replica is just too slow.
func clientGone(r *http.Request, err error) bool {
	return r.Context().Err() != nil || errors.Is(err, context.Canceled)
}

// attemptTimedOut reports whether the failure was the per-attempt
// deadline expiring while the client's own context was still live — the
// signature of a gray failure: the replica accepted the connection and
// then stalled.
func attemptTimedOut(r *http.Request, err error) bool {
	return r.Context().Err() == nil && errors.Is(err, context.DeadlineExceeded)
}

// cancelBody ties a per-attempt context to the response body's lifetime:
// the attempt deadline covers headers and body, and the context is
// released when the caller finishes reading.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b cancelBody) Close() error {
	err := b.ReadCloser.Close()
	b.cancel()
	return err
}

// send replays one buffered request against a replica under
// min(client deadline, AttemptTimeout). A genuine transport error (dial
// refused, connection reset) ejects the replica immediately; an attempt
// timeout with the client still live is the same verdict with a "slow"
// cause — both are returned for the caller's failover decision and
// recorded against the replica's shed window. A failure the client
// itself caused (see clientGone) leaves the replica untouched. Any HTTP
// response — success or error status — is a backend verdict returned
// as-is; its body read stays bounded by the attempt deadline.
func (f *Fleet) send(r *http.Request, base, path string, body []byte) (*http.Response, error) {
	ctx := r.Context()
	cancel := context.CancelFunc(func() {})
	if f.cfg.AttemptTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, f.cfg.AttemptTimeout)
	}
	resp, err := f.sendCtx(ctx, r, base, path, body)
	if err != nil {
		cancel()
		switch {
		case clientGone(r, err):
			// Nobody is reading the answer; not a replica verdict.
		case attemptTimedOut(r, err):
			f.met.attemptTimeouts.With(f.hostOf(base)).Inc()
			f.recordOutcome(base, true)
			f.noteTransportFailure(base, fmt.Errorf("slow: attempt exceeded %v: %w", f.cfg.AttemptTimeout, err))
		default:
			f.recordOutcome(base, true)
			f.noteTransportFailure(base, err)
		}
		return nil, err
	}
	resp.Body = cancelBody{ReadCloser: resp.Body, cancel: cancel}
	return resp, nil
}

// sendSlow is send without the attempt deadline — the admin plane's
// variant. Scrubs and rekeys legitimately run for as long as the model is
// large; only the client's own deadline bounds them.
func (f *Fleet) sendSlow(r *http.Request, base, path string, body []byte) (*http.Response, error) {
	resp, err := f.sendCtx(r.Context(), r, base, path, body)
	if err != nil && !clientGone(r, err) {
		f.noteTransportFailure(base, err)
	}
	return resp, err
}

// sendCtx issues one proxied request under ctx, copying the relevant
// inbound headers.
func (f *Fleet) sendCtx(ctx context.Context, r *http.Request, base, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, r.Method, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	if id := r.Header.Get(serve.RequestIDHeader); id != "" {
		req.Header.Set(serve.RequestIDHeader, id)
	}
	return f.client.Do(req)
}

// hostOf maps a replica base URL to its host:port metric label.
func (f *Fleet) hostOf(base string) string {
	if r, ok := f.replicas[base]; ok {
		return r.host
	}
	return base
}

// backoff sleeps the full-jitter exponential backoff for replay n
// (0-based): rand(0, min(BackoffMax, BackoffBase<<n)). Returns false if
// the client's context died during the wait — the failover loop should
// stop, nobody is listening.
func (f *Fleet) backoff(r *http.Request, n int) bool {
	ceil := f.cfg.BackoffBase << n
	if ceil > f.cfg.BackoffMax || ceil <= 0 {
		ceil = f.cfg.BackoffMax
	}
	d := time.Duration(rand.Int63n(int64(ceil) + 1))
	if d == 0 {
		return r.Context().Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-r.Context().Done():
		return false
	}
}

// hold drains up to 64 KiB of a backend verdict into memory and closes
// the live body, which dies with its attempt context: the verdict can then
// be relayed after later failover attempts have run, or after the caller
// has read it.
func hold(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return body, err
}

// relay copies a backend verdict to the client verbatim.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// failoverOwners returns a request's candidate replicas: the ring's
// distinct-owner order for the key, truncated to the retry budget (the
// first owner plus at most RetryBudget replays). When ejections leave
// the ring too thin to fill that budget, off-ring replicas pad the list
// as last-resort backstops — panic routing. An ejected replica is a
// health *estimate*, and when the estimate says most of the fleet is
// dead it is more likely lagging a burst of gray-failure verdicts than
// right; attempting anyway converts a guaranteed failure into a likely
// success, and a replica that really is down just fails its bounded
// attempt like any other failover. Admin-drained replicas are never
// candidates (they are mid-rekey on purpose); soft-drained ones are —
// overloaded beats unavailable.
func (f *Fleet) failoverOwners(key string) []string {
	max := f.cfg.RetryBudget + 1
	owners := f.ring.Owners(key, len(f.replicas))
	if len(owners) > max {
		return owners[:max]
	}
	if len(owners) == len(f.replicas) {
		return owners
	}
	if len(owners) == 0 {
		f.met.panicRoutes.Inc()
	}
	inRing := make(map[string]bool, len(owners))
	for _, base := range owners {
		inRing[base] = true
	}
	for _, base := range f.order {
		if len(owners) >= max {
			break
		}
		if inRing[base] {
			continue
		}
		r := f.replicas[base]
		r.mu.Lock()
		held := r.draining
		r.mu.Unlock()
		if !held {
			owners = append(owners, base)
		}
	}
	return owners
}

// forward sends a buffered request to its key's ring owners in failover
// order, with full-jitter backoff between attempts, and returns the
// verdict to relay together with the replica that gave it. Every attempt
// feeds that replica's shed window. Three verdicts move the request to
// the next distinct owner within the retry budget:
//
//   - a 429 queue-full shed, on every route — the replica answered
//     without doing the work, so the request spreads to the next owner
//     while the replica keeps its ring slot;
//   - a transport failure or attempt timeout, when replay is set — the
//     replica is ejected (the timeout as a "slow" verdict);
//   - a 5xx, when replay is set — a gray verdict (chaos faults,
//     mid-crash errors).
//
// replay is the route's idempotency. A pure read (sync inference, model
// info) replays; a job submit does not, because an accepted job holds a
// table slot: its transport failure answers 502 — the job may or may not
// have been accepted, and only the client can decide to resubmit — and
// its 5xx is relayed. A verdict that moved the request on is held, and the
// latest one held is returned only when every later candidate failed at
// the transport level; only when every candidate is down at that level
// does the client see 502. A nil response means the client was already
// answered, or has gone.
func (f *Fleet) forward(w http.ResponseWriter, r *http.Request, key string, replay bool) (*http.Response, string) {
	body, ok := f.readBody(w, r)
	if !ok {
		return nil, ""
	}
	owners := f.failoverOwners(key)
	if len(owners) == 0 {
		http.Error(w, "fleet: no healthy replicas", http.StatusServiceUnavailable)
		return nil, ""
	}
	var lastErr error
	var held *http.Response
	var heldBase string
	for i, base := range owners {
		if i > 0 && !f.backoff(r, i-1) {
			return nil, ""
		}
		last := i == len(owners)-1
		resp, err := f.send(r, base, r.URL.Path, body)
		if err != nil {
			if clientGone(r, err) {
				return nil, ""
			}
			if !replay {
				http.Error(w, fmt.Sprintf("fleet: replica %s: %v", base, err), http.StatusBadGateway)
				return nil, ""
			}
			lastErr = err
			if !last {
				f.met.failovers.Inc()
				f.met.retries.Inc()
			}
			continue
		}
		shed := resp.StatusCode == http.StatusTooManyRequests
		gray := resp.StatusCode >= http.StatusInternalServerError
		f.recordOutcome(base, shed || gray)
		if last || !(shed || (gray && replay)) {
			return resp, base
		}
		hold(resp) // a failed drain leaves a short body; the status is the verdict
		held, heldBase = resp, base
		if shed {
			f.met.shedFailovers.Inc()
		} else {
			f.met.errFailovers.Inc()
		}
		f.met.retries.Inc()
	}
	if held != nil {
		return held, heldBase
	}
	http.Error(w, fmt.Sprintf("fleet: all candidate replicas failed: %v", lastErr),
		http.StatusBadGateway)
	return nil, ""
}

// handleRead routes sync inference and model info by the model's ring
// owner. Both are pure reads of the weight image, so failover replays
// them.
func (f *Fleet) handleRead(w http.ResponseWriter, r *http.Request) {
	if resp, _ := f.forward(w, r, r.PathValue("model"), true); resp != nil {
		relay(w, resp)
	}
}

// handleSubmitJob routes an async submit by ring owner, without replay,
// and learns the accepted job ID's replica tag for handleJob.
func (f *Fleet) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	resp, base := f.forward(w, r, r.PathValue("model"), false)
	if resp == nil {
		return
	}
	body, err := hold(resp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	var ref serve.JobRef
	if resp.StatusCode == http.StatusAccepted && json.Unmarshal(body, &ref) == nil && ref.ID.Tag() != "" {
		f.jobs.Store(ref.ID.Tag(), base)
	}
	relay(w, resp)
}

// handleJob answers polls and cancels from the replica that minted the
// job, found by the ID's replica tag: only it can answer for the job, and
// its own 404 covers a job it cancelled, reaped or never had. A tag no
// accepted submit carried is a fleet 404; an unreachable replica is a 502
// that keeps the tag, so a later poll reaches the job if the replica
// recovers. Soft-drained replicas stay reachable here — the tag routes by
// base URL, not by the ring.
func (f *Fleet) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := f.jobs.Load(serve.JobID(id).Tag())
	if !ok {
		http.Error(w, "fleet: unknown job "+id, http.StatusNotFound)
		return
	}
	base := v.(string)
	resp, err := f.send(r, base, r.URL.Path, nil)
	if err != nil {
		http.Error(w, fmt.Sprintf("fleet: replica %s unreachable for job %s: %v", base, id, err),
			http.StatusBadGateway)
		return
	}
	relay(w, resp)
}

// ModelEntry is one model in the fleet's merged listing: the owning
// replica's view plus the ownership itself.
type ModelEntry struct {
	serve.ModelInfo
	Owner string `json:"owner"`
}

// ModelsResponse is the fleet's GET /v1/models body: one entry per model,
// as served by its ring owner.
type ModelsResponse struct {
	Models []ModelEntry `json:"models"`
}

// handleModels merges the listing across in-ring replicas. Each model
// appears once, described by its ring owner (the replica whose metrics
// actually reflect the traffic the fleet routed); replicas that fail the
// fan-out are skipped — the prober will eject them. When members exist
// but none answered, the client gets 502, not a 200 that would be
// indistinguishable from a genuinely empty fleet.
func (f *Fleet) handleModels(w http.ResponseWriter, r *http.Request) {
	members := f.ring.Members()
	if len(members) == 0 {
		http.Error(w, "fleet: no healthy replicas", http.StatusServiceUnavailable)
		return
	}
	var (
		merged   ModelsResponse
		seen     = make(map[string]int) // model name → index in merged.Models
		answered int
	)
	for _, base := range members {
		resp, err := f.send(r, base, "/v1/models", nil)
		if err != nil {
			if clientGone(r, err) {
				return
			}
			continue
		}
		var one serve.ModelsResponse
		err = json.NewDecoder(resp.Body).Decode(&one)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			continue
		}
		answered++
		for _, mi := range one.Models {
			owner := f.ring.Lookup(mi.Name)
			entry := ModelEntry{ModelInfo: mi, Owner: owner}
			if i, dup := seen[mi.Name]; dup {
				if owner == base {
					merged.Models[i] = entry
				}
				continue
			}
			seen[mi.Name] = len(merged.Models)
			merged.Models = append(merged.Models, entry)
		}
	}
	if answered == 0 {
		http.Error(w, "fleet: no in-ring replica answered the listing fan-out",
			http.StatusBadGateway)
		return
	}
	writeJSON(w, http.StatusOK, merged)
}

// FleetStatus is the GET /v1/fleet body.
type FleetStatus struct {
	Replicas []ReplicaStatus `json:"replicas"`
	// InRing is how many replicas currently take traffic.
	InRing int `json:"in_ring"`
}

func (f *Fleet) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, FleetStatus{Replicas: f.statuses(), InRing: len(f.ring.Members())})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
