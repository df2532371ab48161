package core

import "radar/internal/cpu"

// RefreshAll recomputes every layer's golden signatures (a full re-protect
// without re-drawing the secrets), sharded across the worker pool.
func (p *Protector) RefreshAll() {
	var sh []shard
	p.Golden = make([][]uint8, len(p.Model.Layers))
	for _, li := range p.takeLayers(nil, allLayers) {
		p.Golden[li] = make([]uint8, p.Schemes[li].NumGroups(len(p.Model.Layers[li].Q)))
		sh = p.appendLayerShards(sh, li)
	}
	cd := p.shardCountdown(sh)
	cpu.Parallel(p.poolSize(len(sh)), len(sh), func(_, k int) {
		s := sh[k]
		p.plans[s.layer].signaturesInto(p.Golden[s.layer][s.lo:s.hi], p.Model.Layers[s.layer].Q, s.lo)
		cd.shardDone(k)
	})
	p.refreshChecksAll()
}

// Rekey draws fresh per-layer keys and offsets from seed and recomputes
// all golden signatures. Rotating the secrets bounds how long a
// side-channel leak of one key is useful to an attacker. Only the secrets
// change: group size, interleaving, signature bits, workers, shard size,
// OnLayerScanned and ECC correction stay as they are (check words are
// recomputed alongside the goldens), so a key rotation can never
// downgrade the recovery mode. No new model observer is registered.
func (p *Protector) Rekey(seed int64) {
	var s Scheme
	if len(p.Schemes) > 0 {
		s = p.Schemes[0] // every layer shares G, Interleave and SigBits
	}
	p.mu.Lock()
	cfg := Config{
		G: s.G, Interleave: s.Interleave, SigBits: s.SigBits, Seed: seed,
		Workers: p.workers, shardGroups: p.shardGroups,
		OnLayerScanned: p.onLayerScanned, Correct: p.correct,
	}
	p.mu.Unlock()
	fresh := newProtector(p.Model, cfg)
	p.Schemes = fresh.Schemes
	p.plans = fresh.plans
	p.Golden = fresh.Golden
	p.Check = fresh.Check
	p.stats.rekeys.Add(1)
}
