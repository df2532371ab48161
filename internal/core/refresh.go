package core

import "radar/internal/cpu"

// RefreshAll recomputes every layer's golden signatures (a full re-protect
// without re-drawing the secrets), sharded across the worker pool. It takes
// no layer lock: on a model in concurrent use, call it inside Exclusive.
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

// Rekey rotates the secrets in one exclusive section (see Exclusive). It
// first scans every layer and repairs what it flags, so live corruption is
// repaired rather than laundered into the fresh goldens; then it draws
// fresh per-layer keys and offsets from seed, recomputes every golden
// signature and stamps every layer as verified. Rotating the secrets
// bounds how long a side-channel leak of one key is useful to an attacker.
// Only the secrets change: group size, interleaving, signature bits,
// workers, shard size, OnLayerScanned and ECC correction stay as they are
// (check words are recomputed alongside the goldens), so a key rotation
// can never downgrade the recovery mode. No new model observer is
// registered. It returns the groups the repair pass flagged and the
// weights it zeroed.
func (p *Protector) Rekey(seed int64) (flagged []GroupID, zeroed int) {
	p.Exclusive(func() {
		flagged = p.scan(allLayers, true)
		zeroed = p.repair(flagged, true)
		p.drawSecrets(seed)
	})
	p.stats.rekeys.Add(1)
	return flagged, zeroed
}
