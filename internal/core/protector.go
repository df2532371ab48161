package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"radar/internal/cpu"
	"radar/internal/quant"
)

// Config selects the model-wide RADAR parameters. Per-layer secrets (keys
// and interleave offsets) are derived from Seed.
type Config struct {
	// G is the group size (paper: 8 for ResNet-20, 512 for ResNet-18).
	G int
	// Interleave enables the interleaved grouping.
	Interleave bool
	// SigBits is 2 or 3 (3 extends protection to MSB-1, §VIII).
	SigBits int
	// Seed derives the per-layer secret keys and offsets.
	Seed int64
	// Workers bounds the worker pool of the parallel scan/protect engine.
	// Zero or negative selects runtime.GOMAXPROCS(0). Workers: 1 runs the
	// engine sequentially; any value produces identical results.
	Workers int
	// shardGroups caps the checksum groups per parallel scan shard (zero:
	// defaultShardGroups). Shard geometry never changes results, only load
	// balance; tests shrink it to force several shards per layer.
	shardGroups int
	// OnLayerScanned, when set, is called with the layer index each time a
	// scan or protect pass finishes the last shard of that layer — once per
	// layer per pass, possibly from a worker goroutine, so it must be cheap
	// and safe for concurrent use. Streaming deployments use it to release
	// a memory-mapped layer's pages (store.Checkpoint.ReleaseLayer) as soon
	// as the pass is done with them, which is what bounds resident memory
	// when protecting checkpoints far larger than RAM. The hook observes
	// pass progress only; results are identical with or without it.
	OnLayerScanned func(layer int)
	// Correct enables ECC-corrected recovery: Protect additionally stores
	// one SEC-DED Hamming check word per group, and recovery repairs
	// single-bit-corrupted groups in place (see correct.go) instead of
	// zeroing them. Costs 4 bytes of trusted storage per group and one
	// extra encoding pass at protect/refresh time; scans are unaffected.
	Correct bool
}

// DefaultConfig returns the paper's standard configuration for a given
// group size: interleaving on, 2-bit signatures, worker pool sized to the
// machine.
func DefaultConfig(g int) Config {
	return Config{G: g, Interleave: true, SigBits: 2, Seed: 0xADA1}
}

// GroupID identifies one checksum group of a protected model.
type GroupID struct {
	// Layer is the quantized-layer index.
	Layer int
	// Group is the group index within the layer.
	Group int
}

// Protector binds a RADAR configuration to a quantized model: it holds the
// per-layer schemes and the golden signatures ("securely stored on-chip").
type Protector struct {
	// Model is the protected quantized model.
	Model *quant.Model
	// Schemes holds the per-layer scheme (same order as Model.Layers).
	Schemes []Scheme
	// Golden holds the per-layer golden signatures.
	Golden [][]uint8
	// Check holds the per-layer per-group SEC-DED check words when
	// Config.Correct is set (nil otherwise); see correct.go.
	Check [][]uint32

	// shape is every layer's scheme less its secrets (G, Interleave,
	// SigBits). It is fixed at Protect, so a scan can size its shards
	// without a lock while Rekey swaps Schemes.
	shape Scheme
	// plans holds each layer's scheme compiled against its length (same
	// order as Schemes, rebuilt whenever Schemes is): what FetchLayer's
	// inline verify runs from.
	plans []kernelPlan

	// workers is the configured pool size (0 = GOMAXPROCS, resolved at
	// scan time).
	workers int
	// shardGroups is the configured shard size (0 = defaultShardGroups).
	shardGroups int
	// onLayerScanned is Config.OnLayerScanned (nil = no per-layer
	// completion notifications).
	onLayerScanned func(layer int)
	// correct is Config.Correct: recovery consults the Check words before
	// zeroing.
	correct bool

	// mu guards dirty. Write notifications arrive via the model observer
	// and may race with scans; the flags are the only shared mutable state.
	mu sync.Mutex
	// dirty marks layers written through the quant.Model API since the
	// layer was last scanned; ScanDirty skips clean layers.
	dirty []bool
	// unobserve detaches this protector's write observer from the model;
	// see Detach.
	unobserve func()

	// verified[li] is when layer li was last checked against its goldens by
	// Protect, a SweepTick or a FetchLayer (Unix ns, start of that check).
	verified []atomic.Int64

	// locks[li] is layer li's read-write lock (see guard.go): fetches and
	// scans read the layer under it, repairs and Exclusive write under it.
	locks []sync.RWMutex
	// stats are the activity counters exported by Stats.
	stats struct {
		scans, bytesScanned, groupsFlagged, groupsRecovered, weightsZeroed, rekeys atomic.Int64
		groupsCorrected, groupsZeroed                                              atomic.Int64
	}
}

// Protect computes golden signatures for every quantized layer of m under
// cfg and returns the Protector. The per-layer 16-bit keys and interleave
// offsets are drawn from cfg.Seed — these are the secrets of the scheme.
// Signature generation fans out over cfg.Workers; the golden values are
// identical for every worker count. The protector registers itself as a
// write observer of m, so mutations made through the quant.Model API
// (FlipBit, Restore) mark the touched layers dirty for ScanDirty. A Config
// that fails Scheme.Validate on any layer panics before any signing.
func Protect(m *quant.Model, cfg Config) *Protector {
	if cfg.SigBits == 0 {
		cfg.SigBits = 2
	}
	p := &Protector{
		Model:          m,
		workers:        cfg.Workers,
		shardGroups:    cfg.shardGroups,
		onLayerScanned: cfg.OnLayerScanned,
		correct:        cfg.Correct,
		dirty:          make([]bool, len(m.Layers)),
		verified:       make([]atomic.Int64, len(m.Layers)),
		locks:          make([]sync.RWMutex, len(m.Layers)),
		shape:          Scheme{G: cfg.G, Interleave: cfg.Interleave, SigBits: cfg.SigBits},
	}
	p.drawSecrets(cfg.Seed)
	p.unobserve = m.Observe(p.markDirty)
	return p
}

// drawSecrets gives every layer a scheme of p.shape with a fresh key and
// interleave offset drawn from seed, rebuilds the kernel plans, recomputes
// every golden signature (and check word) from the current weights and
// stamps every layer as verified now. The secrets are drawn sequentially,
// so the scheme stream depends only on seed, never on worker scheduling.
func (p *Protector) drawSecrets(seed int64) {
	rng, s := rand.New(rand.NewSource(seed)), p.shape
	now := time.Now()
	p.Schemes = make([]Scheme, len(p.Model.Layers))
	p.plans = make([]kernelPlan, len(p.Model.Layers))
	for li, l := range p.Model.Layers {
		// RefreshAll below derives the goldens from these bytes.
		p.stamp(li, now)
		s.Offset = DefaultOffset + rng.Intn(4) // per-layer secret offset
		s.Key = uint16(rng.Intn(1 << KeyBits))
		s.Validate(len(l.Q))
		p.Schemes[li], p.plans[li] = s, s.compile(len(l.Q))
	}
	p.RefreshAll()
}

// poolSize resolves the configured worker count for n tasks at call time
// (under mu: SetWorkers may tune it from another goroutine) by
// cpu.Workers' rule: non-positive means one worker per CPU, at most n.
func (p *Protector) poolSize(n int) int {
	p.mu.Lock()
	w := p.workers
	p.mu.Unlock()
	return cpu.Workers(w, n)
}

// Workers reports the resolved worker-pool size the engine will use.
func (p *Protector) Workers() int { return p.poolSize(math.MaxInt) }

// SetWorkers re-sizes the worker pool of an existing protector (w <= 0
// selects GOMAXPROCS). Scan results are identical for every setting; this
// exists so benchmarks and deployments can tune concurrency without
// re-deriving secrets or golden signatures. Safe to call concurrently
// with scans; in-flight scans keep their pool size.
func (p *Protector) SetWorkers(w int) {
	p.mu.Lock()
	p.workers = w
	p.mu.Unlock()
}

// Detach unregisters the protector's write observer from the model. Call
// it when retiring a protector whose model lives on (e.g. after
// re-protecting with a different configuration); afterwards ScanDirty no
// longer sees new writes, so only Scan/ScanLayer give sound results.
func (p *Protector) Detach() {
	if p.unobserve != nil {
		p.unobserve()
		p.unobserve = nil
	}
}

// MarkLayerDirty flags a layer for the next ScanDirty. Callers that mutate
// Layer.Q directly (bypassing the quant.Model API and its write
// notifications) use this to keep incremental scanning sound.
func (p *Protector) MarkLayerDirty(li int) { p.markDirty(li) }

// markDirty records a write to layer li (observer callback; safe for
// concurrent use).
func (p *Protector) markDirty(li int) {
	p.mu.Lock()
	if li >= 0 && li < len(p.dirty) {
		p.dirty[li] = true
	}
	p.mu.Unlock()
}

// allLayers and dirtyLayers select, in place of a layer index, what a pass
// covers: every layer, or the layers written since they were last scanned.
const (
	allLayers   = -1
	dirtyLayers = -2
)

// takeLayers appends the layers a pass over which (a layer index,
// allLayers or dirtyLayers) covers onto dst in ascending order and clears
// their dirty flags. A pass takes its layers before it reads any weight,
// so a write landing mid-pass re-marks its layer and is caught by the next
// ScanDirty. dst is a pooled buffer wherever the pass must not allocate.
func (p *Protector) takeLayers(dst []int, which int) []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if which >= 0 {
		p.dirty[which] = false
		return append(dst, which)
	}
	for li, d := range p.dirty {
		if d || which == allLayers {
			dst = append(dst, li)
			p.dirty[li] = false
		}
	}
	return dst
}

// scan is the one scan pass behind every entry point: it takes the layers
// which selects (see takeLayers), accounts the pass in Stats, shards those
// layers onto the worker pool and returns the groups whose recomputed
// signature differs from the golden one, sorted by layer then group —
// byte-identical for every worker count. Each shard reads its layer under
// the layer's read lock, so scans may overlap inference fetches but never a
// repair; held says the caller already holds the write lock of every
// scanned layer, where taking the read lock again would self-deadlock. The
// working memory is pooled: a clean pass at Workers=1 allocates nothing.
func (p *Protector) scan(which int, held bool) []GroupID {
	p.stats.scans.Add(1)
	sc := getScratch()
	defer putScratch(sc)
	sc.layers = p.takeLayers(sc.layers, which)
	bytes := 0
	for _, li := range sc.layers {
		bytes += len(p.Model.Layers[li].Q) // one byte per int8 weight
		sc.shards = p.appendLayerShards(sc.shards, li)
	}
	p.stats.bytesScanned.Add(int64(bytes))
	return p.runShards(sc.shards, sc, !held)
}

// Scan recomputes every layer's signatures over the current (possibly
// corrupted) quantized weights and returns the mismatching groups, sorted
// by layer then group. The work is sharded across the worker pool; the
// flagged list is byte-identical to a sequential scan for every worker
// count. This is the operation embedded in the inference weight-fetch path.
func (p *Protector) Scan() []GroupID { return p.scan(allLayers, false) }

// ScanLayer scans a single layer (used by the run-time embedded detection,
// which checks each layer as its weights are fetched). Shards of the layer
// fan out over the worker pool.
func (p *Protector) ScanLayer(li int) []GroupID { return p.scan(li, false) }

// ScanDirty is the incremental scan: it checks only layers written through
// the quant.Model API since they were last scanned (by Scan, ScanLayer, or
// a previous ScanDirty) and skips clean layers entirely. On a clean model
// it touches no weights and returns nil. Corruption that bypasses the
// model API (direct writes to Layer.Q) is invisible to dirty tracking and
// needs a full Scan. Flagged groups are sorted by layer then group, and
// for the dirty layers the result equals what Scan would report.
func (p *Protector) ScanDirty() []GroupID { return p.scan(dirtyLayers, false) }

// repair is the one repair pass behind every entry point: it repairs the
// flagged groups (sorted by layer, as scans report them) one layer at a
// time and returns the number of weights zeroed. Repair writes Layer.Q
// directly, bypassing the quant.Model write path, so every layer that had
// bytes written is reported through MarkWritten once its lock is released
// — what keeps external storage (an mmap-backed checkpoint scheduling the
// layer for msync) and incremental scanners sound.
func (p *Protector) repair(flagged []GroupID, held bool) (zeroed int) {
	corrected := 0
	for lo, hi := 0, 0; lo < len(flagged); lo = hi {
		for hi < len(flagged) && flagged[hi].Layer == flagged[lo].Layer {
			hi++
		}
		z, c, wrote := p.repairLayer(flagged[lo:hi], held)
		if wrote {
			p.Model.MarkWritten(flagged[lo].Layer)
		}
		zeroed += z
		corrected += c
	}
	p.addRecoveryStats(len(flagged), corrected, zeroed)
	return zeroed
}

// repairLayer repairs the flagged groups of one layer under that layer's
// write lock — taken here, and released on a panic too, unless held says
// the caller has it. It returns the weights zeroed, the groups the ECC
// path corrected, and whether any weight byte was written.
func (p *Protector) repairLayer(groups []GroupID, held bool) (zeroed, corrected int, wrote bool) {
	if !held {
		p.locks[groups[0].Layer].Lock()
		defer p.locks[groups[0].Layer].Unlock()
	}
	for _, g := range groups {
		z, w, c := p.repairGroupLocked(g)
		zeroed += z
		wrote = wrote || w
		if c {
			corrected++
		}
	}
	return zeroed, corrected, wrote
}

// Recover repairs every flagged group and returns the number of weights
// zeroed. Without correction (the paper's scheme) a flagged group is
// zeroed outright: every weight is cleared (de-interleaving back to
// original positions), the float weights resynchronized, and the group's
// golden signature refreshed so subsequent scans accept the recovered
// state. With Config.Correct, the group's ECC check word is consulted
// first and single-bit-corrupted groups are restored in place — those
// contribute nothing to the returned zeroed count (see correct.go).
//
// Each layer's repair happens under that layer's write lock, so recovery is
// safe to run while other goroutines read the same model for inference.
// Consecutive flagged groups of the same layer share one lock acquisition —
// the flagged lists produced by scans are sorted by layer, so each layer is
// locked once.
func (p *Protector) Recover(flagged []GroupID) int { return p.repair(flagged, false) }

// addRecoveryStats accounts one recovery batch: n flagged groups of which
// corrected were ECC-repaired and the rest zeroed, clearing zeroedWeights
// individual weights.
func (p *Protector) addRecoveryStats(n, corrected, zeroedWeights int) {
	if n == 0 {
		return
	}
	p.stats.groupsRecovered.Add(int64(n))
	p.stats.weightsZeroed.Add(int64(zeroedWeights))
	p.stats.groupsCorrected.Add(int64(corrected))
	p.stats.groupsZeroed.Add(int64(n - corrected))
}

// recoverGroupLocked zeroes one flagged group and refreshes its golden
// signature. The caller holds the layer's write lock (or is otherwise the
// only goroutine touching the model).
func (p *Protector) recoverGroupLocked(g GroupID) int {
	zeroed := 0
	l := p.Model.Layers[g.Layer]
	s := p.Schemes[g.Layer]
	s.VisitMembers(g.Group, len(l.Q), func(_, i int) {
		if l.Q[i] != 0 {
			l.Q[i] = 0
			zeroed++
		}
		l.SyncIndex(i)
	})
	// A zeroed group has checksum 0 → signature 0.
	p.Golden[g.Layer][g.Group] = s.Binarize(0)
	return zeroed
}

// DetectAndRecover is the full run-time reaction: scan every layer, repair
// the flagged groups, and report what happened — exactly
// Recover(Scan()). On a clean model it is a Scan.
func (p *Protector) DetectAndRecover() (flagged []GroupID, zeroed int) {
	flagged = p.scan(allLayers, false)
	return flagged, p.repair(flagged, false)
}

// SweepBytesPerSecond bounds a sweep tick to interval × this many weight
// bytes (never under one layer): about ⅛ of one core's G=8 scan rate, so a
// multi-GiB mapped checkpoint is swept at a fixed cost, not once per tick.
const SweepBytesPerSecond = 256 << 20

// Sweep is what one SweepTick did: the groups it flagged, in visit order,
// the weights their repair zeroed, and the layers it scanned, skipped as
// verified within half an interval (Fresh), and left to a later tick by
// the byte budget (Deferred).
type Sweep struct {
	Flagged                          []GroupID
	Zeroed, Scanned, Fresh, Deferred int
}

// SweepTick runs one tick of the defender's rolling sweep at time now. It
// skips layers verified within interval/2 (a whole one would skip what the
// last tick stamped every other time), scans and repairs the rest oldest
// stamp first, and stops once interval × SweepBytesPerSecond bytes are
// covered; the rest leads the next tick. An idle layer's age is thus at
// most max(interval, model bytes ÷ SweepBytesPerSecond) plus one tick. An
// interval ≤ 0 is a full sweep, with no horizon or budget. Each scanned
// layer is stamped with now, so the caller's clock is the sweep's: serve
// passes wall time, a campaign its window clock. Scans and repairs take
// one layer's lock at a time, so traffic never stalls longer than one
// layer's recovery.
func (p *Protector) SweepTick(now time.Time, interval time.Duration) (sw Sweep) {
	horizon, budget := int64(math.MaxInt64), math.MaxInt
	if interval > 0 {
		horizon, budget = now.Add(-interval/2).UnixNano(), int(interval.Seconds()*SweepBytesPerSecond)
	}
	at := make([]int64, len(p.verified))
	stale := make([]int, 0, len(at))
	for li := range at {
		if at[li] = p.verified[li].Load(); at[li] < horizon {
			stale = append(stale, li)
		}
	}
	slices.SortStableFunc(stale, func(a, b int) int { return cmp.Compare(at[a], at[b]) })
	for covered := 0; sw.Scanned < len(stale) && (sw.Scanned == 0 || covered < budget); sw.Scanned++ {
		li := stale[sw.Scanned]
		f := p.ScanLayer(li)
		sw.Zeroed += p.Recover(f) // nothing flagged: no lock taken, nothing counted
		sw.Flagged = append(sw.Flagged, f...)
		p.stamp(li, now)
		covered += len(p.Model.Layers[li].Q)
	}
	sw.Fresh, sw.Deferred = len(at)-len(stale), len(stale)-sw.Scanned
	return sw
}

// stamp advances layer li's last-verified stamp to at. Stamps only move
// forward: a tick finishing, or a slower worker's pass, never overwrites
// the stamp of a check that began later.
func (p *Protector) stamp(li int, at time.Time) {
	for ns := at.UnixNano(); ; {
		cur := p.verified[li].Load()
		if ns <= cur || p.verified[li].CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Verified returns the oldest and the newest last-verified stamp: the
// oldest dates the exposure window, the newest starts a campaign's clock.
func (p *Protector) Verified() (oldest, newest time.Time) {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for li := range p.verified {
		at := p.verified[li].Load()
		lo, hi = min(lo, at), max(hi, at)
	}
	return time.Unix(0, lo), time.Unix(0, hi)
}

// GroupOf maps a bit address to its checksum group under this protector.
func (p *Protector) GroupOf(a quant.BitAddress) GroupID {
	l := p.Model.Layers[a.LayerIndex]
	return GroupID{
		Layer: a.LayerIndex,
		Group: p.Schemes[a.LayerIndex].GroupOf(a.WeightIndex, len(l.Q)),
	}
}

// CountDetected returns how many of the given flipped bits lie in flagged
// groups — the paper's "number of detected bit-flips out of N" metric.
func (p *Protector) CountDetected(addrs []quant.BitAddress, flagged []GroupID) int {
	set := make(map[GroupID]bool, len(flagged))
	for _, g := range flagged {
		set[g] = true
	}
	n := 0
	for _, a := range addrs {
		if set[p.GroupOf(a)] {
			n++
		}
	}
	return n
}

// NumGroups returns the total number of checksum groups in the model.
func (p *Protector) NumGroups() int {
	n := 0
	for _, l := range p.Model.Layers {
		n += p.shape.NumGroups(len(l.Q))
	}
	return n
}
