package main

import (
	"fmt"
	"hash/crc64"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"
	"unsafe"

	"radar/internal/core"
	"radar/internal/model"
	"radar/internal/quant"
	"radar/internal/store"
)

const (
	// scansPerIteration clean scans follow every Protect, and a third follows
	// every recovery. Two, so that a section of 128 MiB passes still holds
	// thirty-odd Protect passes to find its fastest among.
	scansPerIteration = 2
	// scanFlips seeded MSB flips, in distinct groups, precede every
	// DetectAndRecover.
	scanFlips = 16
	// imageGroup is the paper's ResNet-18 group size, used for the two
	// synthetic images.
	imageGroup = 512
	// scanWorkers pins the scan section's protectors to one worker. The
	// reference box has two vCPUs that the host sometimes places on one
	// core: in sizing probes a two-worker Scan of the 11.7 MB image ran at
	// 3.2–5.4 GB/s from one process to the next (3.5 or 5, nothing between),
	// a one-worker Scan at 2.7–3.3. A regression bound cannot sit on a
	// bimodal number, so the end-to-end scan metrics are per-core figures
	// and the traced run reports the default-workers speed beside them
	// (core.scan_wn_mbps, core.protect_wn_mbps).
	scanWorkers = 1
)

// scanImage is the weight image the scan section guards.
type scanImage struct {
	m   *quant.Model
	cfg core.Config
	// ck is set for the mapped image only.
	ck   *store.Checkpoint
	path string
	// weights is the image size in bytes (one per int8 weight).
	weights int
	// sum is the CRC of the untouched image: the section must hand the
	// image back bit-identical.
	sum uint64
	// saveMBps is the checkpoint write throughput (mapped image only).
	saveMBps float64
}

var crcTable = crc64.MakeTable(crc64.ECMA)

func asBytes(q []int8) []byte {
	if len(q) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&q[0])), len(q))
}

// checksum walks the image layer by layer, releasing mapped pages behind
// itself so the walk does not set the resident-set high-water mark.
func (im *scanImage) checksum() uint64 {
	var sum uint64
	for li, l := range im.m.Layers {
		sum = crc64.Update(sum, crcTable, asBytes(l.Q))
		if im.ck != nil {
			im.ck.ReleaseLayer(li)
		}
	}
	return sum
}

// releaseAll drops the mapped image's pages from the resident set. Planting
// and undoing flips walks whole interleaved groups — one page per member —
// and that is the harness's footprint, not the program's: it must not set
// rss_peak_mb.
func (im *scanImage) releaseAll() {
	if im.ck != nil {
		for li := range im.m.Layers {
			im.ck.ReleaseLayer(li)
		}
	}
}

// mappedMiB sizes the mapped checkpoint: 128 MiB at any real run length,
// smaller only under the test's -scale so the smoke run stays quick.
func mappedMiB(seconds float64) int {
	return min(max(int(seconds*16), 16), 128)
}

// writeCheckpoint streams a synthetic checkpoint through the store's own
// Writer: 16 equal layers plus an odd tail layer that is no multiple of the
// group size or the page size. The weight stream is a function of the seed.
func writeCheckpoint(path string, mib int, seed int64) (weights int, mbps float64, err error) {
	t0 := time.Now()
	w, err := store.Create(path)
	if err != nil {
		return 0, 0, err
	}
	sizes := make([]int, 0, 17)
	for i := 0; i < 16; i++ {
		sizes = append(sizes, mib<<20/16)
	}
	sizes = append(sizes, 1_000_003)
	x := uint32(seed)*2654435761 + 0x9E3779B9
	buf := make([]byte, 1<<20)
	for i, n := range sizes {
		if err := w.AddLayer(fmt.Sprintf("layer%02d", i), 1, nil, int64(n)); err != nil {
			return 0, 0, err
		}
		for left := n; left > 0; {
			chunk := buf[:min(left, len(buf))]
			for j := range chunk {
				x = x*1664525 + 1013904223
				chunk[j] = byte(x >> 24)
			}
			if _, err := w.Write(chunk); err != nil {
				return 0, 0, err
			}
			left -= len(chunk)
		}
		weights += n
	}
	if err := w.Close(); err != nil {
		return 0, 0, err
	}
	return weights, float64(weights) / 1e6 / time.Since(t0).Seconds(), nil
}

// openImage builds the workload's scan image. For the mapped workload the
// checkpoint file must already exist (writing it is input generation); the
// open itself belongs to set-up and is what this function times.
func openImage(w *workload, path string) (*scanImage, error) {
	im := &scanImage{cfg: core.DefaultConfig(imageGroup)}
	defer func() { im.cfg.Workers = scanWorkers }()
	switch w.Image {
	case imageHeap:
		im.m = model.SyntheticQuant(model.ResNet18ImageNetShapes())
	case imageMapped:
		ck, err := store.Open(path)
		if err != nil {
			return nil, fmt.Errorf("open checkpoint: %w", err)
		}
		if !ck.Mapped() {
			ck.Close()
			return nil, fmt.Errorf("checkpoint %s was loaded into RAM, not mapped", path)
		}
		ck.AdviseSequential()
		im.ck, im.path, im.m = ck, path, ck.Model()
		im.cfg.OnLayerScanned = ck.ReleaseLayer
	}
	im.weights = im.m.TotalWeights()
	return im, nil
}

func (im *scanImage) close() error {
	if im.ck != nil {
		return im.ck.Close()
	}
	return nil
}

// flip is one mounted bit flip plus what is needed to undo the recovery
// that follows it: the group it lies in and that group's original weights.
type flip struct {
	addr  quant.BitAddress
	group core.GroupID
	idx   []int
	orig  []int8
}

// plantFlips mounts n MSB flips in pairwise distinct groups as direct
// writes to Layer.Q — a physical fault does not call a write observer.
func plantFlips(p *core.Protector, rng *rand.Rand, n int) []flip {
	m := p.Model
	var out []flip
	taken := map[core.GroupID]bool{}
	for len(out) < n {
		li := rng.Intn(len(m.Layers))
		l := m.Layers[li]
		a := quant.BitAddress{LayerIndex: li, WeightIndex: rng.Intn(len(l.Q)), Bit: quant.MSB}
		g := p.GroupOf(a)
		if taken[g] {
			continue
		}
		taken[g] = true
		f := flip{addr: a, group: g}
		p.Schemes[li].VisitMembers(g.Group, len(l.Q), func(_, i int) {
			f.idx = append(f.idx, i)
			f.orig = append(f.orig, l.Q[i])
		})
		out = append(out, f)
	}
	for _, f := range out {
		l := m.Layers[f.addr.LayerIndex]
		l.Q[f.addr.WeightIndex] = quant.FlipBit(l.Q[f.addr.WeightIndex], quant.MSB)
	}
	return out
}

// unplant puts the flipped groups back as they were before plantFlips —
// the part of Restore(snapshot) this loop needs, without copying a 128 MiB
// image through a shared mapping on every iteration.
func unplant(m *quant.Model, flips []flip) {
	for _, f := range flips {
		l := m.Layers[f.addr.LayerIndex]
		for k, i := range f.idx {
			l.Q[i] = f.orig[k]
		}
		m.MarkWritten(f.addr.LayerIndex)
	}
}

func groupsOf(flips []flip) []core.GroupID {
	out := make([]core.GroupID, len(flips))
	for i, f := range flips {
		out[i] = f.group
	}
	sortGroups(out)
	return out
}

func sortGroups(g []core.GroupID) {
	slices.SortFunc(g, func(a, b core.GroupID) int {
		if a.Layer != b.Layer {
			return a.Layer - b.Layer
		}
		return a.Group - b.Group
	})
}

// refFlagged recomputes the flagged set with the scalar reference kernel,
// releasing each mapped layer behind itself like a scan pass would.
func (im *scanImage) refFlagged(p *core.Protector) []core.GroupID {
	var out []core.GroupID
	for li, l := range p.Model.Layers {
		s := p.Schemes[li]
		fresh := s.SignaturesRangeRef(l.Q, 0, s.NumGroups(len(l.Q)))
		for _, j := range core.Compare(p.Golden[li], fresh) {
			out = append(out, core.GroupID{Layer: li, Group: j})
		}
		if im.ck != nil {
			im.ck.ReleaseLayer(li)
		}
	}
	return out
}

// scanResult is what the scan section measured.
type scanResult struct {
	scanMBps, protectMBps, recoverMs reading
	syncS                            []float64
	attempted, failed                int
	gates                            []gate
}

// passes is one series of timed calls: which slice of the section each pass
// ran in, and how long it took.
type passes struct{ slice, secs []float64 }

// scanner runs the scan section in slices, so that a run can spread the
// section over its whole length between the load phases: a slow stretch of
// the shared host then costs every metric one slice and none of them all.
type scanner struct {
	im     *scanImage
	rng    *rand.Rand
	tr     *tracer
	slices int
	res    scanResult

	scan, protect, recover passes
}

func newScanner(im *scanImage, seed int64, tr *tracer) *scanner {
	return &scanner{im: im, rng: rand.New(rand.NewSource(seed)), tr: tr}
}

func (sc *scanner) check(name string, ok bool, detail string) {
	sc.res.attempted++
	if !ok {
		sc.res.failed++
		sc.res.gates = append(sc.res.gates, gate{Name: name, Detail: detail})
	}
}

func (sc *scanner) timed(name string, into *passes, call func()) {
	into.secs = append(into.secs, sc.tr.time(name, call).Seconds())
	into.slice = append(into.slice, float64(sc.slices))
}

// run is one slice: until the deadline, the loop every workload shares —
// Protect, two clean scans, sixteen planted flips, DetectAndRecover, a clean
// scan, and an untimed undo. Each pass is timed on its own.
func (sc *scanner) run(dur time.Duration) {
	im := sc.im
	deadline := time.Now().Add(dur)
	for first := true; first || time.Now().Before(deadline); first = false {
		var p *core.Protector
		sc.timed("core.Protect", &sc.protect, func() { p = core.Protect(im.m, im.cfg) })
		for i := 0; i < scansPerIteration; i++ {
			var flagged []core.GroupID
			sc.timed("core.Scan", &sc.scan, func() { flagged = p.Scan() })
			sc.check("clean scan flags nothing", len(flagged) == 0, fmt.Sprintf("%d groups flagged on an untouched image", len(flagged)))
		}
		flips := plantFlips(p, sc.rng, scanFlips)
		im.releaseAll()
		want := groupsOf(flips)
		if first && sc.slices == 0 {
			// Once per run the fast kernel's verdict is held against the
			// scalar reference, on an image that has flips to find.
			sc.check("flagged set equals SignaturesRangeRef", slices.Equal(im.refFlagged(p), want), "reference kernel disagrees with GroupOf")
		}
		var flagged []core.GroupID
		sc.timed("core.DetectAndRecover", &sc.recover, func() { flagged, _ = p.DetectAndRecover() })
		sc.check("flagged set equals the planted groups", slices.Equal(flagged, want), fmt.Sprintf("flagged %d groups, planted %d", len(flagged), len(want)))
		sc.timed("core.Scan", &sc.scan, func() { flagged = p.Scan() })
		sc.check("post-recovery scan is clean", len(flagged) == 0, "groups still flagged after recovery")
		if im.ck != nil {
			var err error
			took := sc.tr.time("store.SyncDirty", func() { err = im.ck.SyncDirty() })
			sc.res.syncS = append(sc.res.syncS, took.Seconds())
			sc.check("SyncDirty", err == nil, fmt.Sprint(err))
		}
		unplant(im.m, flips)
		im.releaseAll()
		p.Detach()
	}
	sc.slices++
}

// finish closes the section. A pass is a fixed amount of work, and a busy
// neighbour on the shared host can only add time to it, for one pass or for
// minutes on end: the fastest pass of the run is reported, the one the
// neighbour disturbed least (see quietest). The recorded spread is that of
// the slices' fastest passes.
func (sc *scanner) finish() scanResult {
	sc.check("image returned bit-identical", sc.im.checksum() == sc.im.sum, "weights differ from the pre-section image")
	mb := float64(sc.im.weights) / 1e6
	fastest := func(p passes) reading {
		perSlice := map[float64]float64{}
		for i, s := range p.secs {
			if best, ok := perSlice[p.slice[i]]; !ok || s < best {
				perSlice[p.slice[i]] = s
			}
		}
		var per []float64
		for _, s := range perSlice {
			per = append(per, s)
		}
		return reading{Value: slices.Min(p.secs), N: len(p.secs), Spread: spread(per)}
	}
	toMBps := func(r reading) reading {
		r.Value = mb / r.Value
		return r
	}
	sc.res.scanMBps, sc.res.protectMBps = toMBps(fastest(sc.scan)), toMBps(fastest(sc.protect))
	sc.res.recoverMs = fastest(sc.recover)
	sc.res.recoverMs.Value *= 1e3
	return sc.res
}

// scratchDir is where the mapped checkpoint lives: inside the working
// directory, never outside the checkout.
func scratchDir() (string, error) {
	dir := filepath.Join("out", fmt.Sprintf("tmp-%d", os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}

// storeTrip is one write-beside-read round trip through a checkpoint file.
type storeTrip struct {
	openMs, releaseUs, coldScanMBps, syncDirtyMs, bytesPerWeight float64
	verified                                                     bool
	detail                                                       string
}

// storeRoundTrip opens the checkpoint at path mapped, scans it cold, recovers
// a planted volley in place, msyncs it, closes, reopens, and requires the
// repaired image — not the original, not the corrupted one — to read back.
// It is the mapped workload's durability gate and, in the traced run, the
// source of every store.* figure. The file is left repaired.
func storeRoundTrip(path string, seed int64, tr *tracer) (trip storeTrip) {
	mapped := &workload{Image: imageMapped}
	var im *scanImage
	var err error
	trip.openMs = ms(tr.time("store.Open", func() { im, err = openImage(mapped, path) }))
	if err != nil {
		trip.detail = err.Error()
		return trip
	}
	trip.bytesPerWeight = float64(im.ck.Size()) / float64(im.weights)
	p := core.Protect(im.m, im.cfg)
	var rel []float64
	for li := range im.m.Layers {
		rel = append(rel, float64(tr.time("store.ReleaseLayer", func() { im.ck.ReleaseLayer(li) }))/1e3)
	}
	trip.releaseUs = median(rel)
	// Every layer has just been released: this scan re-faults all of it.
	var clean bool
	cold := tr.time("core.Scan cold", func() { clean = len(p.Scan()) == 0 })
	trip.coldScanMBps = float64(im.weights) / 1e6 / cold.Seconds()
	before := im.checksum()
	flips := plantFlips(p, rand.New(rand.NewSource(seed+3)), scanFlips)
	flagged, _ := p.DetectAndRecover()
	p.Detach()
	trip.syncDirtyMs = ms(tr.time("store.SyncDirty", func() { err = im.ck.SyncDirty() }))
	repaired := im.checksum()
	if cerr := im.close(); err == nil {
		err = cerr
	}
	if err != nil || !clean || len(flagged) != len(flips) {
		trip.detail = fmt.Sprintf("clean=%v flagged %d of %d, sync/close: %v", clean, len(flagged), len(flips), err)
		return trip
	}
	re, err := openImage(mapped, path)
	if err != nil {
		trip.detail = err.Error()
		return trip
	}
	defer re.close()
	zeroed := true
	for _, f := range flips {
		for _, i := range f.idx {
			zeroed = zeroed && re.m.Layers[f.addr.LayerIndex].Q[i] == 0
		}
	}
	trip.verified = zeroed && re.checksum() == repaired && repaired != before
	if !trip.verified {
		trip.detail = "reopened checkpoint differs from the repaired image"
	}
	return trip
}
