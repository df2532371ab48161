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
// them, so one replica hanging at HealthTimeout cannot stall the others'
// probes (and with them every pending readmission); a replica whose
// previous probe is still in flight just skips the tick. Failures
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

// probe runs one health check and applies its verdict. A success that
// would readmit an ejected replica first runs the model-set
// reconciliation against the listing the probe just read: a replica that
// missed broadcast membership changes while unreachable must not rejoin
// the ring with a stale hosted set.
func (f *Fleet) probe(r *replica) {
	ctx, cancel := context.WithTimeout(context.Background(), f.cfg.HealthTimeout)
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
	if resp.StatusCode != http.StatusOK {
		f.noteProbe(r, fmt.Errorf("status %d", resp.StatusCode))
		return
	}
	r.mu.Lock()
	wasDown := !r.healthy
	r.mu.Unlock()
	if wasDown && err == nil {
		f.reconcileModels(r, listing.Models)
	}
	f.noteProbe(r, nil)
}

// noteProbe folds one probe result into the replica's state, ejecting
// from or readmitting to the ring as the verdict flips. A draining
// replica (admin-held off the ring) or a soft-drained one keeps its
// health bookkeeping but is never readmitted here.
func (f *Fleet) noteProbe(r *replica, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.fails++
		r.lastErr = err.Error()
		f.met.probeFailures.With(r.host).Inc()
		if r.healthy && r.fails >= f.cfg.FailThreshold {
			r.healthy = false
			f.ring.Remove(r.url)
			f.met.ejections.With(r.host).Inc()
		}
		return
	}
	r.fails = 0
	r.lastErr = ""
	r.lastSeen = time.Now()
	if !r.healthy {
		r.healthy = true
	}
	if !r.draining && !r.shedded {
		f.ring.Add(r.url)
	}
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
	r.fails = f.cfg.FailThreshold
	r.lastErr = err.Error()
	if r.healthy {
		f.met.ejections.With(r.host).Inc()
	}
	r.healthy = false
	f.ring.Remove(r.url)
}

// drain takes a replica off the ring on the admin's behalf (rolling
// rekey); the prober will not readmit it until undrain.
func (f *Fleet) drain(base string) {
	r := f.replicas[base]
	r.mu.Lock()
	r.draining = true
	f.ring.Remove(base)
	r.mu.Unlock()
}

// undrain releases an admin hold; the replica rejoins the ring at once
// when healthy and not soft-drained (otherwise the prober readmits it on
// its next success or once its shed window clears).
func (f *Fleet) undrain(base string) {
	r := f.replicas[base]
	r.mu.Lock()
	r.draining = false
	if r.healthy && !r.shedded {
		f.ring.Add(base)
	}
	r.mu.Unlock()
}
