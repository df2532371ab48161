package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"radar/internal/adversary"
	"radar/internal/quant"
)

// ErrUnknownModel is returned (wrapped, errors.Is-able) when a request
// names a model the registry does not host. The HTTP front-end maps it
// to 404.
var ErrUnknownModel = errors.New("serve: unknown model")

// ErrModelExists is returned by AddModel when the name is already hosted.
// The HTTP front-end maps it to 409.
var ErrModelExists = errors.New("serve: model already hosted")

// ErrLastModel is returned by RemoveModel when removing the name would
// leave the service empty — a service always hosts at least one model.
// The HTTP front-end maps it to 409.
var ErrLastModel = errors.New("serve: cannot remove the last hosted model")

// registry hosts the service's models, one per-model runtime per name.
// The model set is mutable at run time — AddModel/RemoveModel grow and
// shrink it under write exclusion while lookups take the read side — which
// is what lets a fleet router change a replica's hosted set without
// restarting the process. Per-model mutable state lives behind each
// model's own runtime.
type registry struct {
	mu     sync.RWMutex
	byName map[string]*Server
	order  []string // registration order; order[0] is the default model
	// reserved marks names with a hot-add in flight (reserve/release); the
	// HTTP admin plane holds a reservation across its ModelProvider call.
	reserved map[string]bool
}

// lookup resolves a model name; the empty name selects the default model
// (the first registered still hosted), the single-model deployment
// shorthand.
func (r *registry) lookup(name string) (*Server, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		return r.byName[r.order[0]], nil
	}
	s, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownModel, name)
	}
	return s, nil
}

// add registers a new hosted model; the name must be free.
func (r *registry) add(s *Server) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[s.name]; dup {
		return fmt.Errorf("%w: %q", ErrModelExists, s.name)
	}
	r.byName[s.name] = s
	r.order = append(r.order, s.name)
	return nil
}

// reserve marks name as having an add in flight, failing with
// ErrModelExists when it is already hosted or already reserved. The HTTP
// admin plane reserves the name BEFORE invoking the ModelProvider, so a
// provider with side effects — radar-serve rebinds the name's store
// checkpoint, unmapping whatever was bound to it before — never runs for
// a name that is currently serving, even under concurrent adds.
func (r *registry) reserve(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("%w: %q", ErrModelExists, name)
	}
	if r.reserved[name] {
		return fmt.Errorf("%w: %q (add in flight)", ErrModelExists, name)
	}
	if r.reserved == nil {
		r.reserved = make(map[string]bool)
	}
	r.reserved[name] = true
	return nil
}

// release frees a reservation taken with reserve. Safe to call after the
// add published the name: lookups go through byName, so the registration
// itself keeps blocking duplicates once the reservation is gone.
func (r *registry) release(name string) {
	r.mu.Lock()
	delete(r.reserved, name)
	r.mu.Unlock()
}

// remove unregisters a hosted model and returns it so the caller can stop
// its runtime outside the registry lock. Removing the default model
// promotes the next-oldest registration; removing the last model is
// refused (the empty-name route must always resolve).
func (r *registry) remove(name string) (*Server, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownModel, name)
	}
	if len(r.order) == 1 {
		return nil, fmt.Errorf("%w (%q)", ErrLastModel, name)
	}
	delete(r.byName, name)
	for i, n := range r.order {
		if n == name {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	return s, nil
}

// snapshot returns the hosted models in registration order. Long-running
// per-model work (scrubs, rekeys) iterates the snapshot without holding
// the registry lock, so hot add/remove is never blocked behind it; a
// model removed mid-iteration still finishes its cycle harmlessly.
func (r *registry) snapshot() []*Server {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Server, 0, len(r.order))
	for _, n := range r.order {
		out = append(out, r.byName[n])
	}
	return out
}

// each runs f over the hosted models in registration order, or over just
// the named one; empty name means all (the admin endpoints' convention).
func (r *registry) each(name string, f func(*Server)) error {
	if name != "" {
		s, err := r.lookup(name)
		if err != nil {
			return err
		}
		f(s)
		return nil
	}
	for _, s := range r.snapshot() {
		f(s)
	}
	return nil
}

// ModelInfo is one model's identity, configuration and health — an entry
// of GET /v1/models and of Service.Models. Its live figures are series on
// GET /v1/metrics under the model's `model` label.
type ModelInfo struct {
	Name       string `json:"name"`
	Layers     int    `json:"layers"`
	Groups     int    `json:"groups"`
	InputShape []int  `json:"input_shape,omitempty"`
	// Correcting reports whether this model's recovery consults per-group
	// ECC check words before falling back to zeroing.
	Correcting bool  `json:"correcting"`
	ScrubMs    int64 `json:"scrub_interval_ms"`
	Healthy    bool  `json:"healthy"`
}

// info snapshots this model's identity, configuration and health.
func (s *Server) info() ModelInfo {
	return ModelInfo{
		Name:       s.name,
		Layers:     len(s.model.Layers),
		Groups:     s.prot.NumGroups(),
		InputShape: s.cfg.inputShape,
		Correcting: s.prot.Correcting(),
		ScrubMs:    s.cfg.scrubInterval.Milliseconds(),
		Healthy:    s.Healthy(),
	}
}

// rekey rotates this model's protection secrets live through
// core.Protector.Rekey, which repairs live corruption and then derives the
// new goldens in one whole-model exclusive section, so no scan or fetch
// observes a half-swapped scheme set and no flip is laundered into the new
// goldens. Inference stalls only for that section.
func (s *Server) rekey() AdminReport {
	flagged, zeroed := s.prot.Rekey(rekeySeed())
	s.met.rekeys.Inc()
	return AdminReport{Model: s.name, Flagged: len(flagged), Zeroed: zeroed, Rekeyed: true}
}

// rekeySeed draws a fresh secret seed for a live rekey. Entropy quality
// is not load-bearing here (the scheme's threat model is bit-flips, not
// key recovery from ciphertext), but successive rekeys must not repeat.
func rekeySeed() int64 {
	return time.Now().UnixNano() ^ rand.Int63()
}

// injectAdversary plans one volley of the named adversary against this
// model and mounts it under whole-model write exclusion — the live-attack
// hook behind POST /v1/admin/inject. Planning reads the secrets a rekey
// replaces and the weights a repair writes, so it runs inside the
// exclusive section too.
func (s *Server) injectAdversary(name string, flips int, seed int64) (InjectReport, error) {
	if _, err := adversary.New(name); err != nil {
		return InjectReport{}, err
	}
	tgt := adversary.Target{Model: s.model, Prot: s.prot}
	var v adversary.Volley
	s.Inject(func(*quant.Model) {
		v, _ = adversary.PlanVolley(tgt, name, flips, seed) // its one error, an unknown name, is ruled out above
		adversary.Mount(tgt, v)
	})
	s.met.advFlips.Add(int64(v.Size()))
	return InjectReport{
		Model:       s.name,
		Adversary:   name,
		WeightFlips: len(v.Weights),
		SigFlips:    len(v.Signatures),
	}, nil
}

// InjectReport is one model's answer to an adversary injection.
type InjectReport struct {
	Model     string `json:"model"`
	Adversary string `json:"adversary"`
	// WeightFlips / SigFlips count the mounted weight-bit and
	// golden-signature-bit flips.
	WeightFlips int `json:"weight_flips"`
	SigFlips    int `json:"sig_flips,omitempty"`
}

// AdminReport is one model's answer to an admin scrub or rekey.
type AdminReport struct {
	Model string `json:"model"`
	// Flagged / Zeroed report what the scrub cycle, or the rekey's repair
	// pass, found.
	Flagged int `json:"flagged"`
	Zeroed  int `json:"zeroed"`
	// Rekeyed is true when the model's secrets were rotated.
	Rekeyed bool `json:"rekeyed,omitempty"`
}
