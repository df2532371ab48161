package core

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
	runTasks(p.poolSize(), len(sh), func(k int) {
		s := sh[k]
		p.plans[s.layer].signaturesInto(p.Golden[s.layer][s.lo:s.hi], p.Model.Layers[s.layer].Q, s.lo)
		cd.shardDone(k)
	})
	p.refreshChecksAll()
}

// Rekey draws fresh per-layer keys and offsets from the scheme seeds in
// cfg and recomputes all golden signatures. Rotating the secrets bounds
// how long a side-channel leak of one key is useful to an attacker. The
// protector keeps its existing model observation (no new observer is
// registered) and its tuned Workers, shard size and OnLayerScanned unless
// cfg sets them. ECC correction survives a rekey: a protector that
// corrects stays correcting (check words are recomputed alongside the
// goldens) regardless of cfg.Correct — a key rotation must not silently
// downgrade the recovery mode.
func (p *Protector) Rekey(cfg Config) {
	p.mu.Lock()
	if cfg.Workers == 0 {
		cfg.Workers = p.workers
	}
	if cfg.shardGroups == 0 {
		cfg.shardGroups = p.shardGroups
	}
	if cfg.OnLayerScanned == nil {
		cfg.OnLayerScanned = p.onLayerScanned
	}
	cfg.Correct = cfg.Correct || p.correct
	p.mu.Unlock()
	fresh := newProtector(p.Model, cfg)
	p.Schemes = fresh.Schemes
	p.plans = fresh.plans
	p.Golden = fresh.Golden
	p.Check = fresh.Check
	p.correct = fresh.correct
	p.mu.Lock()
	p.workers = fresh.workers
	p.shardGroups = fresh.shardGroups
	p.onLayerScanned = fresh.onLayerScanned
	p.mu.Unlock()
	p.stats.rekeys.Add(1)
}
