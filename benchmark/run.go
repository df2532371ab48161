package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"radar/internal/core"
)

// Set-up is brought up at least setupRepeats times, and for an eighth of the
// measured seconds (3 s) on top of them, and the fastest is reported: like a
// scan pass it is a fixed amount of work that a busy neighbour can only add
// time to. The cheapest bring-up takes 50 ms, and the fastest of nine still
// read 41–85 ms from run to run.
const (
	setupRepeats = 9
	setupShare   = 1.0 / 8
)

// gate is one correctness check that did not hold.
type gate struct {
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
}

// envBlock records the machine a result was taken on; -compare refuses to
// set two results against each other when nproc or GOMAXPROCS differ.
type envBlock struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func readEnv() envBlock {
	e := envBlock{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown", Commit: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	// `go run` does not stamp the binary; ask git, if this is a git checkout.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil && e.Commit == "unknown" {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

// result is everything one workload run reports. The driver reads the last
// line of standard output (see summary); -out writes the whole of it.
type result struct {
	Workload  string             `json:"workload"`
	Why       string             `json:"why"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Env       envBlock           `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Valid     bool               `json:"valid"`
	Metrics   map[string]reading `json:"metrics"`
	Phases    []*phaseReport     `json:"phases,omitempty"`
	Gates     []gate             `json:"failed_gates,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
}

func (r *result) check(name string, ok bool, detail string) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Gates = append(r.Gates, gate{Name: name, Detail: detail})
	}
}

func (r *result) set(name string, v reading) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				v.Unit = d.Unit
				r.Metrics[name] = v
				return
			}
		}
	}
	panic("unknown metric " + name)
}

func (r *result) setValue(name string, v float64) { r.set(name, reading{Value: v, N: 1}) }

// stack is one brought-up workload: the scan image with its first
// protector, and the serving deployment.
type stack struct {
	im   *scanImage
	prot *core.Protector
	d    *deployment
}

func (s *stack) close() error {
	s.d.close()
	s.prot.Detach()
	return s.im.close()
}

// bringUp is what setup_s times: open (or build) the weight image, protect
// it, load and compile and protect the served models, open the services,
// start the router, and wait for the first correct answer.
func bringUp(w *workload, pool *inputPool, ckPath string) (*stack, error) {
	im, err := openImage(w, ckPath)
	if err != nil {
		return nil, err
	}
	prot := core.Protect(im.m, im.cfg)
	d, err := deploy(w, pool)
	if err != nil {
		prot.Detach()
		im.close()
		return nil, err
	}
	return &stack{im: im, prot: prot, d: d}, nil
}

// inputsFor generates everything a run consumes, from the seed alone: the
// request pool with its reference answers and, for the mapped workload, the
// checkpoint file.
func inputsFor(w *workload, seed int64, seconds float64) (pool *inputPool, ckPath string, saveMBps float64, cleanup func(), err error) {
	cleanup = func() {}
	if pool, err = buildPool(w, seed); err != nil {
		return
	}
	if w.Image != imageMapped {
		return
	}
	dir, err := scratchDir()
	if err != nil {
		return
	}
	cleanup = func() { os.RemoveAll(dir) }
	ckPath = filepath.Join(dir, "weights.radar")
	_, saveMBps, err = writeCheckpoint(ckPath, mappedMiB(seconds), seed)
	return
}

// setUp brings the stack up again and again (see setupRepeats), keeps the
// last, and reports the fastest of the times. Each bring-up starts from a
// collected heap, so none pays for the garbage of the one before.
func setUp(w *workload, pool *inputPool, ckPath string, atLeast time.Duration) (*stack, reading, error) {
	var secs []float64
	var st *stack
	for begin := time.Now(); len(secs) < setupRepeats || time.Since(begin) < atLeast; {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, reading{}, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if st, err = bringUp(w, pool, ckPath); err != nil {
			return nil, reading{}, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	st.prot.Detach() // it was protected to time set-up; the scan section protects anew
	st.im.sum = st.im.checksum()
	return st, reading{Value: slices.Min(secs), N: len(secs), Spread: spread(secs)}, nil
}

// runMeasured is the untraced run: set-up, the scan section, the load
// phases, the closing gates. It reports every end-to-end metric.
func runMeasured(w *workload, seed int64, seconds float64) (*result, error) {
	res := &result{Workload: w.Name, Why: w.Why, Seed: seed, Seconds: seconds, Env: readEnv(), Metrics: map[string]reading{}, Valid: true}
	pool, ckPath, _, cleanup, err := inputsFor(w, seed, seconds)
	defer cleanup()
	if err != nil {
		return nil, err
	}
	total := time.Duration(seconds * float64(time.Second))
	st, setup, err := setUp(w, pool, ckPath, share(total, setupShare))
	if err != nil {
		return nil, err
	}
	defer st.close()
	res.set("setup_s", setup)
	before, err := st.d.counters(requestsFamily)
	if err != nil {
		return nil, err
	}

	g := &loadgen{d: st.d, pool: pool, rng: rand.New(rand.NewSource(seed + 1))}
	sc, atk := runSections(res, st.im, g, w, total, seed)
	res.absorb(sc)
	res.set("scan_mbps", sc.scanMBps)
	res.set("protect_mbps", sc.protectMBps)
	if msg := g.firstErr.Load(); msg != nil {
		res.Notes = append(res.Notes, "first request failure: "+*msg)
	}

	single := res.Phases[0]
	res.set("infer_p50_ms", single.latency(p50))
	res.set("exposure_ms", atk.exposure())
	res.set("answer_match_rate", res.matchRate())
	res.closingGates(st, before)
	if w.Image == imageMapped {
		trip := storeRoundTrip(ckPath, seed, nil)
		res.check("reopen sees the repaired image", trip.verified, trip.detail)
	}
	res.setValue("rss_peak_mb", peakRSSMB())
	res.Correct = res.Failed == 0
	return res, nil
}

func share(total time.Duration, s float64) time.Duration {
	return time.Duration(float64(total) * s)
}

func (r *result) absorb(sc scanResult) {
	r.Attempted += sc.attempted
	r.Failed += sc.failed
	r.Gates = append(r.Gates, sc.gates...)
}

// runSections is the measured part of a run. The scan section and the
// `single` phase are cut into `segments` slices each and interleaved — scan
// slice, single slice, scan slice, … — so that each of their metrics samples
// the whole run and a slow stretch of the shared host costs every metric one
// slice, not one metric all its slices. A separate `attack` phase follows in
// one piece (its volley schedule needs a sweep cycle to drain). Where the
// volleys belong to `single` itself (fleet-attack) the adversary runs beside
// the whole interleaved stretch.
//
// Answers of a phase with volleys can only be held to the clean class, every
// other phase's to the clean logits bit for bit. A volley window ends one
// scrub cycle before its traffic does, so the last repairs happen under load
// like the others.
func runSections(res *result, im *scanImage, g *loadgen, w *workload, total time.Duration, seed int64) (scanResult, attackResult) {
	atkRng := rand.New(rand.NewSource(seed + 2))
	volleys := func(dur time.Duration) chan attackResult {
		done := make(chan attackResult, 1)
		go func() { done <- attack(g.d, max(dur-scrubCycle-100*time.Millisecond, 0), w.VolleyEvery, atkRng) }()
		return done
	}
	collect := func(done chan attackResult) attackResult {
		atk := <-done
		res.check("every volley was detected and repaired", atk.uncovered == 0, fmt.Sprintf("%d volleys still in the weights after %v", atk.uncovered, drainWait))
		return atk
	}
	toFront := func(int) (frontKind, string) { return w.Front, "" }

	single := w.Phases[0]
	scanSlice, singleSlice := share(total, w.ScanShare)/segments, share(total, single.Share)/segments
	var atk attackResult
	var done chan attackResult
	if single.Volleys {
		done = volleys(segments * (scanSlice + singleSlice))
	}
	scan := newScanner(im, seed, nil)
	rep := &phaseReport{Name: single.Name, Loop: "open", Front: w.Front.String(), Rate: single.Rate, Inputs: single.Inputs}
	for k := 0; k < segments; k++ {
		scan.run(scanSlice)
		rep.append(g.openLoop(single, singleSlice, !single.Volleys, toFront))
	}
	if single.Volleys {
		atk = collect(done)
	}
	res.addPhase(rep)
	for _, ph := range w.Phases[1:] {
		dur := share(total, ph.Share)
		if ph.Volleys {
			done = volleys(dur)
		}
		res.addPhase(g.openLoop(ph, dur, !ph.Volleys, toFront))
		if ph.Volleys {
			atk = collect(done)
		}
	}
	return scan.finish(), atk
}

func (r *result) addPhase(rep *phaseReport) {
	r.Attempted += rep.Sent
	r.Failed += rep.Failed
	if !rep.Valid {
		r.Valid = false
		r.Notes = append(r.Notes, fmt.Sprintf("phase %s: generator lateness p95 %.2f ms or a growing backlog — latency figures are the generator's, not the system's", rep.Name, rep.LateP95Ms))
	}
	r.Phases = append(r.Phases, rep)
}

// matchRate is the share of answers, over every phase, whose class equals
// the clean reference.
func (r *result) matchRate() reading {
	match, answers := 0, 0
	for _, ph := range r.Phases {
		for _, s := range ph.shots {
			match += s.match
			answers += s.answers
		}
	}
	return reading{Value: float64(match) / float64(max(answers, 1)), N: answers}
}

// closingWeights ends the run with a full scrub of every hosted model, after
// which every weight must equal its pre-attack snapshot.
func (r *result) closingWeights(d *deployment) {
	for _, h := range d.hosted {
		_, err := d.replicas[h.replica].svc.Scrub(h.name, true)
		same := err == nil
		for li, l := range h.qm.Layers {
			same = same && slices.Equal(l.Q, h.snap[li])
		}
		r.check("served weights bit-identical after the final scrub", same, fmt.Sprintf("replica %d model %s", h.replica, h.name))
	}
}

// closingGates adds the instrument check: the replicas' own
// radar_requests_total must agree with what the client counted.
func (r *result) closingGates(st *stack, before map[string]float64) {
	r.closingWeights(st.d)
	answers := 0
	for _, ph := range r.Phases {
		for _, s := range ph.shots {
			answers += s.answers
		}
	}
	after, err := st.d.counters(requestsFamily)
	got := after[requestsFamily] - before[requestsFamily]
	r.check("radar_requests_total agrees with the client", err == nil && int(got) == answers, fmt.Sprintf("replicas counted %.0f inputs, client %d (%v)", got, answers, err))
}

// requestsFamily counts inputs answered, per model, on each replica.
const requestsFamily = "radar_requests_total"

// sumFamily adds up every sample of one family in a Prometheus text body.
func sumFamily(body []byte, family string) float64 {
	total := 0.0
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, family)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64); err == nil {
			total += v
		}
	}
	return total
}

// peakRSSMB is VmHWM of this process.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1e3
		}
	}
	return 0
}

// report prints every metric of the run by name, value and unit.
func (r *result) report(w io.Writer, defs []metricDef) {
	fmt.Fprintf(w, "workload %s seed %d seconds %g traced %v gomaxprocs %d\n", r.Workload, r.Seed, r.Seconds, r.Traced, r.Env.GOMAXPROCS)
	for _, d := range defs {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "  %-28s %14.4f %-9s n=%-7d spread=%.3f\n", d.Name, m.Value, m.Unit, m.N, m.Spread)
	}
	for _, ph := range r.Phases {
		fmt.Fprintf(w, "  phase %-9s %-6s loop sent=%d failed=%d late_p95=%.3fms inflight_max=%d valid=%v\n", ph.Name, ph.Loop, ph.Sent, ph.Failed, ph.LateP95Ms, ph.InflightMax, ph.Valid)
	}
	for _, g := range r.Gates {
		fmt.Fprintf(w, "  FAILED gate: %s (%s)\n", g.Name, g.Detail)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintf(w, "  correct=%v valid=%v attempted=%d failed=%d\n", r.Correct, r.Valid, r.Attempted, r.Failed)
}
