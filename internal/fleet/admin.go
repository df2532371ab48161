package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"time"
)

// ReplicaReport is one replica's slice of a fleet admin operation.
type ReplicaReport struct {
	Replica string `json:"replica"`
	Status  int    `json:"status,omitempty"`
	// Body is the replica's raw JSON answer (the serve admin/model
	// response), embedded verbatim.
	Body json.RawMessage `json:"body,omitempty"`
	Err  string          `json:"error,omitempty"`
}

// AdminResponse answers the fleet admin routes with per-replica results.
type AdminResponse struct {
	Op       string          `json:"op"`
	Replicas []ReplicaReport `json:"replicas"`
}

// broadcast replays a buffered admin request against every configured
// replica in order (not just the in-ring ones: hosted model sets must
// stay identical across the fleet, so a drained replica still receives
// membership changes). Admin work runs without the per-attempt deadline —
// a fleet-wide scrub legitimately takes as long as the models are large.
// Failures are reported per replica, never fatal to the whole operation;
// a replica that missed a broadcast while ejected is repaired by the
// readmission reconciler.
func (f *Fleet) broadcast(r *http.Request, path string, body []byte) []ReplicaReport {
	out := make([]ReplicaReport, 0, len(f.order))
	for _, base := range f.order {
		out = append(out, f.adminCall(r, base, path, body))
	}
	return out
}

// adminCall sends one admin request to one replica, without the attempt
// deadline, and reports its answer: the status and JSON body, or the error.
func (f *Fleet) adminCall(r *http.Request, base, path string, body []byte) ReplicaReport {
	rep := ReplicaReport{Replica: base}
	resp, err := f.sendSlow(r, base, path, body)
	if err != nil {
		rep.Err = err.Error()
		return rep
	}
	defer resp.Body.Close()
	rep.Status = resp.StatusCode
	if raw, err := io.ReadAll(resp.Body); err != nil {
		rep.Err = err.Error()
	} else if json.Valid(raw) {
		rep.Body = raw
	}
	return rep
}

// handleBroadcastAdmin fans POST /v1/admin/scrub out to every replica —
// a fleet-wide scrub sweep with one merged report.
func (f *Fleet) handleBroadcastAdmin(w http.ResponseWriter, r *http.Request) {
	body, ok := f.readBody(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, AdminResponse{
		Op:       "scrub",
		Replicas: f.broadcast(r, r.URL.Path, body),
	})
}

// handleBroadcastModel fans a hot model add/remove out to every replica,
// keeping the fleet's hosted sets identical — a model the ring can route
// anywhere must exist everywhere. The operation also updates the fleet's
// hosted-set intent: a replica that was unreachable for the broadcast is
// diffed against the intent and repaired when the prober readmits it.
func (f *Fleet) handleBroadcastModel(w http.ResponseWriter, r *http.Request) {
	body, ok := f.readBody(w, r)
	if !ok {
		return
	}
	op := "add-model"
	if r.Method == http.MethodDelete {
		op = "remove-model"
	}
	reports := f.broadcast(r, r.URL.Path, body)
	f.recordModelIntent(r.Method, r.PathValue("name"), body, reports)
	writeJSON(w, http.StatusOK, AdminResponse{
		Op:       op,
		Replicas: reports,
	})
}

// handleRollingRekey is the fleet's zero-downtime POST /v1/admin/rekey:
// replicas rekey one at a time, each drained off the ring first so its
// models remap to the surviving owners, then readmitted once its new
// golden signatures are in place. Traffic keeps flowing throughout —
// the exclusive window of each per-replica rekey is only ever behind a
// replica the ring is not routing to.
func (f *Fleet) handleRollingRekey(w http.ResponseWriter, r *http.Request) {
	body, ok := f.readBody(w, r)
	if !ok {
		return
	}
	f.rekeyMu.Lock()
	defer f.rekeyMu.Unlock()
	rekeyStart := time.Now()
	defer func() { f.met.rekeySeconds.Observe(time.Since(rekeyStart).Seconds()) }()
	out := make([]ReplicaReport, 0, len(f.order))
	for _, base := range f.order {
		f.setDraining(base, true)
		// Let requests already routed at the replica finish before its
		// rekey takes the write-exclusive window.
		select {
		case <-time.After(f.cfg.drainWait()):
		case <-r.Context().Done():
			f.setDraining(base, false)
			http.Error(w, r.Context().Err().Error(), http.StatusServiceUnavailable)
			return
		}
		rep := f.adminCall(r, base, "/v1/admin/rekey", body)
		f.setDraining(base, false)
		out = append(out, rep)
	}
	writeJSON(w, http.StatusOK, AdminResponse{Op: "rolling-rekey", Replicas: out})
}
