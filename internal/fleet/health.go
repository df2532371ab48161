package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"radar/internal/serve"
)

// probeLoop drives the health view: each interval, every replica is
// probed off GET /v1/models (the cheapest request that exercises the
// whole serving stack — registry, metrics, job table). Probes run
// concurrently and independently per replica — the tick never joins on
// them, so one replica hanging for its probe timeout cannot stall the
// others' probes (and with them every pending readmission); a replica
// whose previous probe is still in flight just skips the tick. Failures
// accumulate toward ejection; one success readmits — after the
// readmission reconciler has repaired any hosted-set drift the replica
// accumulated while it was unreachable. Each tick also re-examines
// soft-drained replicas whose shed windows have cleared.
func (f *Fleet) probeLoop() {
	defer f.wg.Done()
	var wg sync.WaitGroup
	defer wg.Wait()
	t := time.NewTicker(f.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			for _, base := range f.order {
				r := f.replicas[base]
				if !r.probing.CompareAndSwap(false, true) {
					continue
				}
				wg.Add(1)
				go func(r *replica) {
					defer wg.Done()
					defer r.probing.Store(false)
					f.probe(r)
					f.maybeReadmitShed(r)
				}(r)
			}
		}
	}
}

// probe runs one health check and applies its verdict: a 200 with a
// decodable listing passes, anything else fails. A pass that would
// readmit an ejected replica first runs the model-set reconciliation
// against the listing the probe just read: a replica that missed
// broadcast membership changes while unreachable must not rejoin the ring
// with a stale hosted set.
func (f *Fleet) probe(r *replica) {
	ctx, cancel := context.WithTimeout(context.Background(), f.cfg.probeTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+"/v1/models", nil)
	if err != nil {
		f.noteProbe(r, err)
		return
	}
	resp, err := f.client.Do(req)
	if err != nil {
		f.noteProbe(r, err)
		return
	}
	var listing serve.ModelsResponse
	err = json.NewDecoder(resp.Body).Decode(&listing)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode != http.StatusOK:
		err = fmt.Errorf("status %d", resp.StatusCode)
	case err != nil:
		err = fmt.Errorf("undecodable listing: %w", err)
	}
	if err != nil {
		f.noteProbe(r, err)
		return
	}
	r.mu.Lock()
	wasDown := !r.healthy
	r.mu.Unlock()
	if wasDown {
		f.reconcileModels(r, listing.Models)
	}
	f.noteProbe(r, nil)
}

// noteProbe folds one probe result into the replica's health: failures
// accumulate toward ejection, one success clears them. An admin drain or
// a soft drain still holds a healthy replica off the ring.
func (f *Fleet) noteProbe(r *replica, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err == nil {
		r.fails = 0
		r.lastErr = ""
		r.healthy = true
	} else {
		r.fails++
		r.lastErr = err.Error()
		f.met.probeFailures.With(r.host).Inc()
		if r.healthy && r.fails >= failThreshold {
			r.healthy = false
			f.met.ejections.With(r.host).Inc()
		}
	}
	f.settleLocked(r)
}

// noteTransportFailure is the proxy's fast path to ejection: a connection
// that refuses or resets mid-request — or, with the client still live,
// one that exceeded the attempt deadline — means the replica is broken
// right now, so it leaves the ring immediately instead of waiting out
// the probe threshold. The prober readmits it once it answers again.
func (f *Fleet) noteTransportFailure(base string, err error) {
	r, ok := f.replicas[base]
	if !ok {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fails = failThreshold
	r.lastErr = err.Error()
	if r.healthy {
		f.met.ejections.With(r.host).Inc()
	}
	r.healthy = false
	f.settleLocked(r)
}

// setDraining sets or releases an admin hold (rolling rekey): a held
// replica leaves the ring at once, and a released one rejoins at once
// when healthy and not soft-drained.
func (f *Fleet) setDraining(base string, on bool) {
	r := f.replicas[base]
	r.mu.Lock()
	defer r.mu.Unlock()
	r.draining = on
	f.settleLocked(r)
}

// settleLocked is the one ring-membership rule: a replica takes new
// routing iff it is healthy, not admin-drained and not soft-drained.
// Every flag change calls it with r.mu held.
func (f *Fleet) settleLocked(r *replica) {
	if r.healthy && !r.draining && !r.shedded {
		f.ring.Add(r.url)
	} else {
		f.ring.Remove(r.url)
	}
}
