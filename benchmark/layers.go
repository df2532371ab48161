package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"radar/internal/core"
	"radar/internal/obs"
	"radar/internal/quant"
	"radar/internal/serve"
	"radar/internal/store"
)

// tracedShare: the traced run's timed parts run at half the measured length,
// split the same way for every workload: the ladder needs a hundred-odd
// requests per depth before its medians hold still.
const (
	tracedShare  = 0.5
	tracedScan   = 0.18
	tracedPlain  = 0.20
	tracedBulk   = 0.10
	tracedCaller = 0.07
	tracedSat    = 0.07
	tracedLadder = 0.38
)

// sumGapLimitPct: the layers' self times, each measured on its own, must add
// up to the untraced client-side p50 within this.
const sumGapLimitPct = 10

// probeFor is how long each repeat-until loop of the layer probes runs.
const probeFor = 300 * time.Millisecond

// runTraced is the second run of a workload: every call the benchmark makes
// into a layer is wrapped in a span, the layers are timed one by one from
// outside through their public functions, and the replicas' own /v1/metrics
// and /v1/debug/traces are read for what only the product can know. It
// reports every per-layer metric.
func runTraced(w *workload, seed int64, seconds float64, tr *tracer) (*result, error) {
	res := &result{Workload: w.Name, Why: w.Why, Seed: seed, Seconds: seconds, Traced: true, Env: readEnv(), Metrics: map[string]reading{}, Valid: true}
	for _, d := range perLayer {
		res.setValue(d.Name, 0)
	}
	pool, ckPath, saveMBps, cleanup, err := inputsFor(w, seed, seconds)
	defer cleanup()
	if err != nil {
		return nil, err
	}
	st, err := bringUp(w, pool, ckPath)
	if err != nil {
		return nil, err
	}
	defer st.close()
	st.prot.Detach()
	rng := rand.New(rand.NewSource(seed))

	coreProbes(res, st.im, rng)
	if err := storeProbes(res, st.im, ckPath, saveMBps, seed, tr); err != nil {
		return nil, err
	}
	qinferProbes(res, pool)
	// The store round trip leaves the mapped file repaired, so the image the
	// scan section must hand back is the one it finds now.
	st.im.sum = st.im.checksum()

	total := time.Duration(seconds * tracedShare * float64(time.Second))
	// The scan section again, with spans: Protect, Scan and DetectAndRecover
	// over the per-layer completions (and page releases) beneath them.
	st.im.traceLayers(tr)
	scan := newScanner(st.im, seed, tr)
	scan.run(share(total, tracedScan))
	sc := scan.finish()
	res.absorb(sc)
	res.set("core.recover_ms", sc.recoverMs)
	if len(sc.syncS) > 0 {
		res.setValue("store.sync_dirty_ms", median(sc.syncS)*1e3)
	}
	serveProbes(res, st.d, pool, w, total, seed, tr)
	res.Correct = res.Failed == 0
	return res, nil
}

// traceLayers makes every layer completion inside a pass a child span of the
// pass that is running (the scanner's timed calls set cur).
func (im *scanImage) traceLayers(tr *tracer) {
	release := im.cfg.OnLayerScanned
	im.cfg.OnLayerScanned = func(li int) {
		sp := tr.begin(fmt.Sprintf("layer %d scanned", li), tr.current(), "")
		if release != nil {
			rs := tr.begin("store.ReleaseLayer", sp, "")
			release(li)
			tr.end(rs)
		}
		tr.end(sp)
	}
}

// repeatFor calls f until probeFor has passed (at least three times) and
// returns each call's seconds.
func repeatFor(f func()) []float64 {
	var secs []float64
	for begin := time.Now(); len(secs) < 3 || time.Since(begin) < probeFor; {
		t0 := time.Now()
		f()
		secs = append(secs, time.Since(t0).Seconds())
	}
	return secs
}

func perSecond(mb float64, secs []float64) reading {
	r := medianOf(secs)
	r.Value = mb / r.Value
	return r
}

// coreProbes times core's public entry points one by one on the workload's
// scan image.
func coreProbes(res *result, im *scanImage, rng *rand.Rand) {
	mb := float64(im.weights) / 1e6
	release := func(li int) {
		if im.ck != nil {
			im.ck.ReleaseLayer(li)
		}
	}
	p := core.Protect(im.m, im.cfg)
	defer p.Detach()

	// The kernel alone: one thread, Scheme.Signatures over every layer.
	res.set("core.kernel_mbps", perSecond(mb, repeatFor(func() {
		for li, l := range im.m.Layers {
			sink = p.Schemes[li].Signatures(l.Q)
			release(li)
		}
	})))
	// The scan section runs one worker; here is what the default pool adds.
	p.SetWorkers(0)
	res.set("core.scan_wn_mbps", perSecond(mb, repeatFor(func() { sink = p.Scan() })))
	p.SetWorkers(scanWorkers)
	wn := im.cfg
	wn.Workers = 0
	res.set("core.protect_wn_mbps", perSecond(mb, repeatFor(func() { core.Protect(im.m, wn).Detach() })))

	slowest := 0.0
	for li := range im.m.Layers {
		var secs []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			sink = p.ScanLayer(li)
			secs = append(secs, time.Since(t0).Seconds())
			release(li)
		}
		slowest = max(slowest, median(secs)*1e3)
	}
	res.setValue("core.scan_layer_max_ms", slowest)

	// One observed write, then the incremental scan that follows it; the
	// second FlipBit puts the bit back and the second ScanDirty settles it.
	var dirty []float64
	for i := 0; i < 20; i++ {
		li := rng.Intn(len(im.m.Layers))
		a := quant.BitAddress{LayerIndex: li, WeightIndex: rng.Intn(len(im.m.Layers[li].Q)), Bit: quant.MSB}
		im.m.FlipBit(a)
		t0 := time.Now()
		flagged := p.ScanDirty()
		dirty = append(dirty, float64(time.Since(t0))/1e3)
		im.m.FlipBit(a)
		res.check("ScanDirty sees an observed flip", len(flagged) == 1 && len(p.ScanDirty()) == 0, a.String())
		release(li)
	}
	res.set("core.scan_dirty_us", medianOf(dirty))

	var verify []float64
	for rep := 0; rep < 3; rep++ {
		for li := range im.m.Layers {
			t0 := time.Now()
			flagged, _ := p.VerifyAndRecoverLayer(li)
			verify = append(verify, float64(time.Since(t0))/1e3)
			res.check("VerifyAndRecoverLayer on a clean layer", len(flagged) == 0, fmt.Sprint(li))
			release(li)
		}
	}
	res.set("core.verify_layer_us", medianOf(verify))

	var perGroup []float64
	for i := 0; i < 5; i++ {
		q := core.Protect(im.m, im.cfg)
		flips := plantFlips(q, rng, scanFlips)
		flagged := q.Scan()
		t0 := time.Now()
		q.Recover(flagged)
		perGroup = append(perGroup, float64(time.Since(t0))/1e3/float64(max(len(flagged), 1)))
		unplant(im.m, flips)
		q.Detach()
	}
	res.set("core.recover_us_per_group", medianOf(perGroup))

	const scans = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < scans; i++ {
		sink = p.Scan()
	}
	runtime.ReadMemStats(&after)
	res.setValue("core.scan_allocs", float64(after.Mallocs-before.Mallocs)/scans)
}

// sink keeps results alive so the compiler cannot drop the timed calls.
var sink any

// storeProbes runs the store round trip on a checkpoint of the workload's
// scan image. The mapped workload already has that file (and its write
// throughput); the others save their image through store.Save first.
func storeProbes(res *result, im *scanImage, ckPath string, saveMBps float64, seed int64, tr *tracer) error {
	if ckPath == "" {
		dir, err := scratchDir()
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		ckPath = filepath.Join(dir, "image.radar")
		took := tr.time("store.Save", func() { err = store.Save(ckPath, im.m) })
		saveMBps = float64(im.weights) / 1e6 / took.Seconds()
		if err != nil {
			return fmt.Errorf("save image: %w", err)
		}
	}
	trip := storeRoundTrip(ckPath, seed, tr)
	res.check("reopen sees the repaired image", trip.verified, trip.detail)
	res.setValue("store.save_mbps", saveMBps)
	res.setValue("store.open_ms", trip.openMs)
	res.setValue("store.release_layer_us", trip.releaseUs)
	res.setValue("store.cold_scan_mbps", trip.coldScanMBps)
	res.setValue("store.sync_dirty_ms", trip.syncDirtyMs)
	res.setValue("store.file_bytes_per_weight", trip.bytesPerWeight)
	if trip.verified {
		res.setValue("store.reopen_verified", 1)
	}
	return nil
}

// qinferProbes times the clean reference engine idle: nothing else runs.
func qinferProbes(res *result, pool *inputPool) {
	res.setValue("qinfer.compile_ms", pool.compileMs)
	toMs := func(secs []float64) reading {
		r := medianOf(secs)
		r.Value *= 1e3
		return r
	}
	res.set("qinfer.forward_b1_ms", toMs(repeatFor(func() { sink = pool.forward(0, 1) })))
	res.set("qinfer.forward_b8_ms", toMs(repeatFor(func() { sink = pool.forward(0, bulkInputs) })))
	hooks := 0
	pool.ref.ForwardWithHook(pool.inputs[0], func(int) { hooks++ })
	res.setValue("qinfer.fetch_hooks", float64(hooks))
}

// scrape GETs a /v1/metrics and reports the body and how long it took.
func (d *deployment) scrape(base string) (body []byte, took time.Duration, err error) {
	t0 := time.Now()
	resp, err := d.client.Get(base + "/v1/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return body, time.Since(t0), err
}

// counters sums the named families over every replica's /v1/metrics.
func (d *deployment) counters(families ...string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, rep := range d.replicas {
		body, _, err := d.scrape(rep.url)
		if err != nil {
			return nil, err
		}
		for _, f := range families {
			out[f] += sumFamily(body, f)
		}
	}
	return out, nil
}

// drainTraces reads every replica's trace ring over HTTP once a second until
// stop, and returns each request id's first appearance. The ring holds 256
// entries; the ladder stays under that per second per replica.
func (d *deployment) drainTraces(stop <-chan struct{}) map[string]obs.Trace {
	into := map[string]obs.Trace{}
	fetch := func() {
		for _, rep := range d.replicas {
			resp, err := d.client.Get(rep.url + "/v1/debug/traces?n=256")
			if err != nil {
				continue
			}
			var tr serve.TracesResponse
			err = json.NewDecoder(resp.Body).Decode(&tr)
			resp.Body.Close()
			if err != nil {
				continue
			}
			for _, t := range tr.Traces {
				if _, seen := into[t.ID]; !seen {
					into[t.ID] = t
				}
			}
		}
	}
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			fetch()
			return into
		case <-tick.C:
			fetch()
		}
	}
}

var servedFamilies = []string{
	requestsFamily, "radar_batches_total", "radar_batched_requests_total",
	"radar_verify_hits_total", "radar_verify_scans_total", "radar_verify_flagged_total",
	"radar_scrub_cycles_total", "radar_scrub_flagged_total",
}

// serveProbes measures the serving layers from outside with a ladder:
// request i enters the stack at depth i mod 4 — Engine.Forward,
// Service.Infer, replica HTTP, routed HTTP — so subtracting adjacent depths
// gives each layer's self time, while the replicas' own stage traces, matched
// by X-Request-Id, split what happens inside Service.Infer. The ladder runs
// twice at the single phase's rate: first plain (no spans, no request ids, no
// trace draining), then traced, with volleys landing throughout. The same
// traffic both times, so the difference is what tracing costs.
func serveProbes(res *result, d *deployment, pool *inputPool, w *workload, total time.Duration, seed int64, tr *tracer) {
	single := w.Phases[0]
	g := &loadgen{d: d, pool: pool, rng: rand.New(rand.NewSource(seed + 1))}
	front := w.Front

	plain := g.openLoop(phaseSpec{Name: "ladder-plain", Rate: single.Rate, Inputs: 1}, share(total, tracedPlain), true,
		func(i int) (frontKind, string) { return frontKind(i % 4), "" })
	// 8-input requests: an open loop, then one caller that waits, then nproc.
	bulk := g.openLoop(phaseSpec{Name: "bulk", Rate: w.BulkRate, Inputs: bulkInputs}, share(total, tracedBulk), true,
		func(int) (frontKind, string) { return front, "" })
	caller := g.closedLoop(phaseSpec{Name: "caller", Inputs: bulkInputs}, front, 1, share(total, tracedCaller), true)
	sat := g.closedLoop(phaseSpec{Name: "saturate", Inputs: bulkInputs}, front, runtime.GOMAXPROCS(0), share(total, tracedSat), true)
	res.set("serve.bulk_p50_ms", bulk.latency(p50))
	res.set("serve.caller_ips", caller.inputsPerSecond())

	before, err := d.counters(servedFamilies...)
	res.check("scrape replicas", err == nil, fmt.Sprint(err))
	var protBefore []core.Stats
	for _, h := range d.hosted {
		protBefore = append(protBefore, h.prot.Stats())
	}

	stop, drained := make(chan struct{}), make(chan map[string]obs.Trace, 1)
	go func() { drained <- d.drainTraces(stop) }()
	ladderDur := share(total, tracedLadder)
	atkDone := make(chan attackResult, 1)
	go func() {
		atkDone <- attack(d, max(ladderDur-scrubCycle-100*time.Millisecond, 0), w.VolleyEvery, rand.New(rand.NewSource(seed+2)))
	}()
	g.tr = tr
	ladder := g.openLoop(phaseSpec{Name: "ladder-traced", Rate: single.Rate, Inputs: 1}, ladderDur, false,
		func(i int) (frontKind, string) { return frontKind(i % 4), fmt.Sprintf("ladder-%d", i) })
	g.tr = nil
	atk := <-atkDone
	close(stop)
	traces := <-drained
	res.check("every volley was detected and repaired", atk.uncovered == 0, fmt.Sprintf("%d volleys left", atk.uncovered))

	after, err := d.counters(servedFamilies...)
	res.check("scrape replicas", err == nil, fmt.Sprint(err))
	for _, ph := range []*phaseReport{plain, bulk, caller, sat, ladder} {
		res.Attempted += ph.Sent
		res.Failed += ph.Failed
		res.Phases = append(res.Phases, ph)
	}
	if msg := g.firstErr.Load(); msg != nil {
		res.Notes = append(res.Notes, "first request failure: "+*msg)
	}

	// Per-depth client-side medians: plain ones, like the stage medians they
	// are added to and subtracted from.
	depth := func(f frontKind) reading { return medianOf(ladder.latencies(f)) }
	direct, viaHTTP, routed := depth(frontDirect), depth(frontHTTP), depth(frontRouted)
	res.set("serve.direct_p50_ms", direct)
	res.set("serve.http_p50_ms", viaHTTP)
	res.set("fleet.routed_p50_ms", routed)
	res.setValue("serve.http_self_ms", viaHTTP.Value-direct.Value)
	res.setValue("fleet.self_ms", routed.Value-viaHTTP.Value)

	// Stage medians from the replicas' own traces; the stages become child
	// spans of the client span that carried the same request id.
	stage := map[string][]float64{}
	var outside []float64 // Service.Infer's client latency beyond the replica's enqueue-to-answer
	for _, s := range ladder.shots {
		t, ok := traces[s.id]
		if !ok || !s.ok || s.front == frontEngine {
			continue
		}
		at := t.Start
		for _, sg := range t.Stages {
			stage[sg.Name] = append(stage[sg.Name], sg.Ms)
			tr.add("serve."+sg.Name, at, sg.Ms, s.span, s.id)
			at = at.Add(time.Duration(sg.Ms * float64(time.Millisecond)))
		}
		if s.front == frontDirect {
			outside = append(outside, s.ms-s.late-t.TotalMs)
		}
	}
	sumStages := 0.0
	for _, name := range []string{"queue", "batch", "verify", "forward"} {
		r := medianOf(stage[name])
		res.set("serve."+name+"_ms", r)
		sumStages += r.Value
	}
	// Lateness is the generator's, not Service.Infer's; it is taken out per
	// request above and put back once below, as its own term.
	res.set("serve.self_ms", medianOf(outside))
	matched := len(stage["queue"])
	res.check("replica traces matched by X-Request-Id", matched*10 >= ladder.Sent*3/4*9 || !ladder.Valid, fmt.Sprintf("%d of about %d traced requests found in /v1/debug/traces", matched, ladder.Sent*3/4))

	// The attribution check: the layers' self times up to the workload's
	// front, each measured on its own (stage medians from the replicas'
	// traces over every depth, differences of per-depth medians above them),
	// against the client-side p50 of the requests that entered at the front.
	var lates []float64
	for _, s := range ladder.shots {
		lates = append(lates, s.late)
	}
	sum := sumStages + median(outside) + median(lates)
	if front >= frontHTTP {
		sum += viaHTTP.Value - direct.Value
	}
	if front == frontRouted {
		sum += routed.Value - viaHTTP.Value
	}
	clientP50 := depth(front).Value
	gap := 100 * (sum - clientP50) / clientP50
	res.setValue("trace.sum_gap_pct", gap)
	// The sum is a statement about the measurement, not about the program's
	// outputs: outside the limit the run is marked invalid, not incorrect.
	// It needs enough requests at every depth and a generator that kept its
	// schedule to mean anything.
	switch enough := len(ladder.latencies(frontEngine)) >= 50 && len(outside) >= 50; {
	case !enough || !ladder.Valid:
		res.Notes = append(res.Notes, fmt.Sprintf("attribution not checked: %d requests per depth, ladder valid=%v", len(outside), ladder.Valid))
	case gap <= -sumGapLimitPct || gap >= sumGapLimitPct:
		res.Valid = false
		res.Notes = append(res.Notes, fmt.Sprintf("INVALID attribution: self times sum to %.3f ms, client-side p50 is %.3f ms (%+.1f%%, limit %d%%)", sum, clientP50, gap, sumGapLimitPct))
	}
	plainP50 := median(plain.latencies(front))
	res.setValue("trace.overhead_pct", 100*(clientP50-plainP50)/plainP50)

	delta := func(f string) float64 { return after[f] - before[f] }
	res.setValue("serve.avg_batch", delta("radar_batched_requests_total")/max(delta("radar_batches_total"), 1))
	res.setValue("serve.verify_hit_ratio", delta("radar_verify_hits_total")/max(delta("radar_verify_hits_total")+delta("radar_verify_scans_total"), 1))
	res.setValue("serve.scrub_cycles", delta("radar_scrub_cycles_total"))
	res.setValue("serve.scrub_flagged", delta("radar_scrub_flagged_total"))
	res.setValue("serve.verify_flagged", delta("radar_verify_flagged_total"))
	answers := 0
	for _, s := range ladder.shots {
		if s.front != frontEngine {
			answers += s.answers
		}
	}
	agree := delta(requestsFamily) == float64(answers)
	res.check("radar_requests_total agrees with the client", agree, fmt.Sprintf("replicas counted %.0f inputs, client %d", delta(requestsFamily), answers))
	if agree {
		res.setValue("serve.metrics_agree", 1)
	}

	var stats core.Stats
	for i, h := range d.hosted {
		now := h.prot.Stats()
		stats.Scans += now.Scans - protBefore[i].Scans
		stats.BytesScanned += now.BytesScanned - protBefore[i].BytesScanned
		stats.GroupsFlagged += now.GroupsFlagged - protBefore[i].GroupsFlagged
		stats.GroupsCorrected += now.GroupsCorrected - protBefore[i].GroupsCorrected
		stats.GroupsZeroed += now.GroupsZeroed - protBefore[i].GroupsZeroed
	}
	res.setValue("core.scans", float64(stats.Scans))
	res.setValue("core.bytes_scanned", float64(stats.BytesScanned))
	res.setValue("core.groups_flagged", float64(stats.GroupsFlagged))
	res.setValue("core.groups_corrected", float64(stats.GroupsCorrected))
	res.setValue("core.groups_zeroed", float64(stats.GroupsZeroed))
	res.setValue("core.detect_ratio", float64(atk.repaired)/float64(max(atk.mounted, 1)))
	res.setValue("adversary.volleys", float64(atk.volleys))
	res.setValue("adversary.flips_mounted", float64(atk.mounted))
	res.setValue("adversary.flips_repaired", float64(atk.repaired))
	res.setValue("adversary.exposure_max_ms", percentile(sortedCopy(atk.exposureMs), 1))

	d.wireAndRouter(res, pool)
	atFront := plain.latencies(front)
	res.set("client.p95_ms", reading{Value: p95(atFront), N: len(atFront)})
	res.set("client.p99_ms", reading{Value: p99(atFront), N: len(atFront)})
	res.setValue("client.late_p95_ms", plain.LateP95Ms)
	res.setValue("client.inflight_max", float64(plain.InflightMax))
	res.set("client.sat_ips", sat.inputsPerSecond())
	res.closingWeights(d)
}

// wireAndRouter reads what is left from the wire: request and response sizes
// of a one-input request, the router's own counters, and what a scrape costs.
func (d *deployment) wireAndRouter(res *result, pool *inputPool) {
	name := d.models[0]
	req, _ := http.NewRequestWithContext(context.Background(), http.MethodPost, d.replicas[d.owner[name]].url+"/v1/models/"+name+"/infer", bytes.NewReader(pool.single[0]))
	if resp, err := d.client.Do(req); err == nil {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		res.setValue("serve.req_bytes", float64(len(pool.single[0])))
		res.setValue("serve.resp_bytes", float64(len(raw)))
	}
	base := d.routerURL
	if d.w.Front != frontRouted {
		base = d.replicas[0].url
	}
	var took []float64
	size := 0
	for i := 0; i < 5; i++ {
		body, dur, err := d.scrape(base)
		res.check("scrape /v1/metrics", err == nil, fmt.Sprint(err))
		took, size = append(took, ms(dur)), len(body)
	}
	res.set("obs.scrape_ms", medianOf(took))
	res.setValue("obs.scrape_bytes", float64(size))

	body, _, err := d.scrape(d.routerURL)
	res.check("scrape the router", err == nil, fmt.Sprint(err))
	res.setValue("fleet.retries", sumFamily(body, "radar_fleet_retries_total"))
	res.setValue("fleet.failovers", sumFamily(body, "radar_fleet_failovers_total"))
	res.setValue("fleet.ejections", sumFamily(body, "radar_fleet_replica_ejections_total"))
	first, _, err := d.scrape(d.replicas[0].url)
	all, err2 := d.counters(requestsFamily)
	res.check("scrape replicas", err == nil && err2 == nil, fmt.Sprint(err, err2))
	res.setValue("fleet.owner_share", sumFamily(first, requestsFamily)/max(all[requestsFamily], 1))
}
