package fleet

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"

	"radar/internal/serve"
)

// modelIntent is the fleet's record of what the hosted model set is
// supposed to look like, accumulated from admin broadcasts: every model
// an operator hot-added (with the add request body, so the add can be
// replayed) and every model an operator hot-removed. A replica that was
// unreachable for a broadcast — ejected, hung, mid-restart — is diffed
// against this intent when the prober readmits it, and repaired with
// per-replica add/remove calls before it re-enters the ring.
//
// Only deltas the fleet itself brokered are tracked; the base set the
// replicas booted with needs no record, because a replica cannot lose it
// by missing a broadcast.
type modelIntent struct {
	mu      sync.Mutex
	added   map[string][]byte // model name → broadcast add body
	removed map[string]struct{}
}

// record folds one broadcast membership change into the intent. Adds and
// removes cancel each other: the latest operation wins.
func (mi *modelIntent) record(method, name string, body []byte) {
	mi.mu.Lock()
	defer mi.mu.Unlock()
	if mi.added == nil {
		mi.added = make(map[string][]byte)
		mi.removed = make(map[string]struct{})
	}
	if method == http.MethodDelete {
		delete(mi.added, name)
		mi.removed[name] = struct{}{}
		return
	}
	delete(mi.removed, name)
	mi.added[name] = append([]byte(nil), body...)
}

// snapshot copies the current intent for lock-free use during a
// reconciliation's HTTP round trips.
func (mi *modelIntent) snapshot() (added map[string][]byte, removed []string) {
	mi.mu.Lock()
	defer mi.mu.Unlock()
	if len(mi.added) == 0 && len(mi.removed) == 0 {
		return nil, nil
	}
	added = make(map[string][]byte, len(mi.added))
	for k, v := range mi.added {
		added[k] = v
	}
	for k := range mi.removed {
		removed = append(removed, k)
	}
	return added, removed
}

// recordModelIntent updates the hosted-set intent after a broadcast
// add/remove. The intent only moves when at least one replica confirmed
// the operation — a change every replica rejected (unknown zoo source,
// removing the last model) never becomes intent, so reconciliation will
// not retry a doomed operation forever.
func (f *Fleet) recordModelIntent(method, name string, body []byte, reports []ReplicaReport) {
	confirmed := false
	for _, rep := range reports {
		if rep.Err == "" && rep.Status >= 200 && rep.Status < 300 {
			confirmed = true
			break
		}
	}
	if !confirmed {
		return
	}
	f.intent.record(method, name, body)
}

// reconcileModels runs just before an ejected replica is readmitted: it
// diffs the replica's live GET /v1/models listing, read by the probe that
// found it healthy again, against the fleet's hosted-set intent and
// repairs drift — models the fleet added while the replica was
// unreachable are added, models the fleet removed are removed — via that
// replica's own admin surface. Best-effort: a repair that fails is counted
// and retried at the next readmission; the readmission itself proceeds
// either way, because a stale-but-serving replica beats an ejected one.
func (f *Fleet) reconcileModels(r *replica, listing []serve.ModelInfo) {
	added, removed := f.intent.snapshot()
	if len(added) == 0 && len(removed) == 0 {
		return
	}
	hosted := make(map[string]bool, len(listing))
	for _, m := range listing {
		hosted[m.Name] = true
	}
	for name, body := range added {
		if !hosted[name] {
			f.repair(r, http.MethodPost, name, body)
		}
	}
	for _, name := range removed {
		if hosted[name] {
			f.repair(r, http.MethodDelete, name, nil)
		}
	}
}

// repair replays one membership change against one replica's admin
// surface and counts the outcome.
func (f *Fleet) repair(r *replica, method, name string, body []byte) {
	ctx, cancel := context.WithTimeout(context.Background(), f.cfg.probeTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, r.url+"/v1/admin/models/"+name, bytes.NewReader(body))
	if err != nil {
		return
	}
	if len(body) > 0 {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := f.client.Do(req)
	if err != nil {
		f.met.reconcileFailures.With(r.host).Inc()
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		f.met.reconcileRepairs.With(r.host).Inc()
		return
	}
	f.met.reconcileFailures.With(r.host).Inc()
}
