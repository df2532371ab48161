package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// segments is the number of slices the scan section and the `single` phase
// are cut into and interleaved in, so that both sample the whole run.
const segments = 5

// lateLimitMs: above this generator lateness (p95) the generator, not the
// system under test, shaped the latency figures, and the run is flagged.
const lateLimitMs = 2.0

// shot is one request as the client saw it.
type shot struct {
	at     float64 // due (open loop) or completion (closed loop) offset, seconds
	ms     float64 // latency from the due time
	late   float64 // how late the generator sent it, ms
	inputs int
	front  frontKind
	id     string
	span   int
	ok     bool // answered, and every answer passed the phase's check
	// answers received (0 or inputs), and how many of them carry the clean
	// reference's class.
	answers, match int
}

// phaseReport is the per-phase record written to the result file.
type phaseReport struct {
	Name        string  `json:"name"`
	Loop        string  `json:"loop"`
	Front       string  `json:"front"`
	Rate        float64 `json:"rate_rps,omitempty"`
	Clients     int     `json:"clients,omitempty"`
	Inputs      int     `json:"inputs_per_request"`
	Seconds     float64 `json:"seconds"`
	Sent        int     `json:"sent"`
	Failed      int     `json:"failed"`
	LateP50Ms   float64 `json:"late_p50_ms"`
	LateP95Ms   float64 `json:"late_p95_ms"`
	LateMaxMs   float64 `json:"late_max_ms"`
	InflightMax int     `json:"inflight_max"`
	Valid       bool    `json:"valid"`

	shots []shot
}

// loadgen drives one deployment from one process, through at most nproc HTTP
// connections (the client's MaxConnsPerHost).
type loadgen struct {
	d    *deployment
	pool *inputPool
	rng  *rand.Rand
	// tr, when set, gets one span per request, named after the depth the
	// request entered the stack at.
	tr *tracer
	// firstErr keeps the first request failure for the report.
	firstErr atomic.Pointer[string]
}

// once sends request i of a phase and checks the answers: always the class,
// and with exact the logits bit for bit (a phase with live flips can only be
// held to the class). Model and pool offset are functions of i and the
// seed-derived base, never of timing.
func (g *loadgen) once(ctx context.Context, front frontKind, i, base, inputs int, exact bool, id string) (s shot) {
	s.inputs, s.front, s.id = inputs, front, id
	name := g.d.models[i%len(g.d.models)]
	first := (base + i*7) % poolSize
	s.span = g.tr.begin(front.spanName(), 0, id)
	ans, err := g.d.send(ctx, front, name, g.pool, first, inputs, id)
	g.tr.end(s.span)
	if err != nil {
		g.note(fmt.Sprintf("%s request %d: %v", front, i, err))
		return s
	}
	s.ok, s.answers = true, len(ans)
	for j, a := range ans {
		k := (first + j) % poolSize
		if a.Class == g.pool.class[k] {
			s.match++
		}
		if exact && !slices.Equal(a.Logits, g.pool.logits[k]) {
			g.note(fmt.Sprintf("%s request %d input %d: logits differ from the reference engine", front, i, j))
			s.ok = false
		}
	}
	return s
}

// sleepUntil blocks in nanosleep(2). time.Sleep goes through the runtime's
// netpoller, whose waits are whole milliseconds: on the reference box it
// overshoots by up to 1 ms, nanosleep by about 0.1 ms — and that overshoot
// is generator lateness, charged to every open-loop latency.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

func (g *loadgen) note(msg string) {
	g.firstErr.CompareAndSwap(nil, &msg)
}

// openLoop sends on a schedule whatever the system does: request i is due at
// i/rate plus a seeded jitter of up to a fifth of the period, is sent from
// its own goroutine, and is timed from the moment it was due — so a stall
// charges every request it delayed.
//
// route picks the depth request i enters the stack at, and its request id
// (empty: none); the measured phases send everything to the workload's front.
func (g *loadgen) openLoop(ph phaseSpec, dur time.Duration, exact bool, route func(i int) (frontKind, string)) *phaseReport {
	n := max(int(ph.Rate*dur.Seconds()), 1)
	period := time.Duration(float64(time.Second) / ph.Rate)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i)*period + time.Duration((g.rng.Float64()-0.5)*0.4*float64(period))
	}
	due[0] = 0
	base := g.rng.Intn(poolSize)
	front, _ := route(0)
	rep := &phaseReport{Name: ph.Name, Loop: "open", Front: front.String(), Rate: ph.Rate, Inputs: ph.Inputs, Seconds: dur.Seconds(), shots: make([]shot, n)}
	var wg sync.WaitGroup
	var inflight, inflightMax atomic.Int64
	start := time.Now()
	for i := 0; i < n; i++ {
		sleepUntil(start.Add(due[i]))
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur := inflight.Add(1)
			for m := inflightMax.Load(); cur > m && !inflightMax.CompareAndSwap(m, cur); m = inflightMax.Load() {
			}
			sentAt := time.Since(start)
			front, id := route(i)
			s := g.once(context.Background(), front, i, base, ph.Inputs, exact, id)
			s.at, s.ms, s.late = due[i].Seconds(), ms(time.Since(start)-due[i]), ms(sentAt-due[i])
			inflight.Add(-1)
			rep.shots[i] = s
		}()
	}
	wg.Wait()
	rep.InflightMax = int(inflightMax.Load())
	rep.finish()
	return rep
}

// closedLoop runs clients callers that each send their next request only
// once the previous one is answered.
func (g *loadgen) closedLoop(ph phaseSpec, front frontKind, clients int, dur time.Duration, exact bool) *phaseReport {
	base := g.rng.Intn(poolSize)
	rep := &phaseReport{Name: ph.Name, Loop: "closed", Front: front.String(), Clients: clients, Inputs: ph.Inputs, Seconds: dur.Seconds(), InflightMax: clients}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var next atomic.Int64
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				s := g.once(context.Background(), front, i, base, ph.Inputs, exact, "")
				s.at, s.ms = time.Since(start).Seconds(), ms(time.Since(t0))
				mu.Lock()
				rep.shots = append(rep.shots, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rep.finish()
	return rep
}

// append adds a later slice of the same phase: its requests follow the ones
// already here on the phase's own clock.
func (r *phaseReport) append(slice *phaseReport) {
	for _, s := range slice.shots {
		s.at += r.Seconds
		r.shots = append(r.shots, s)
	}
	r.Seconds += slice.Seconds
	r.InflightMax = max(r.InflightMax, slice.InflightMax)
	r.finish()
}

func (r *phaseReport) finish() {
	r.Failed = 0
	r.Sent = len(r.shots)
	var late []float64
	for _, s := range r.shots {
		if !s.ok {
			r.Failed++
		}
		late = append(late, s.late)
	}
	late = sortedCopy(late)
	r.LateP50Ms, r.LateP95Ms, r.LateMaxMs = percentile(late, 0.5), percentile(late, 0.95), percentile(late, 1)
	// A backlog that grows shows as the last segment's median latency
	// running away from the first's.
	head, tail := r.segmentP50(0), r.segmentP50(segments-1)
	r.Valid = r.LateP95Ms <= lateLimitMs && (r.Loop == "closed" || head == 0 || tail <= 3*head)
}

func (r *phaseReport) segmentP50(k int) float64 {
	var v []float64
	for _, s := range r.shots {
		if s.ok && min(int(s.at/r.Seconds*segments), segments-1) == k {
			v = append(v, s.ms)
		}
	}
	return p50(v)
}

// latency reports a percentile of the answered requests: per half-second
// window, then the quietest window's (see quietest). A failed request has no
// latency to offer; it is counted in Failed and misses every latency figure.
func (r *phaseReport) latency(stat func([]float64) float64) reading {
	var at, val []float64
	for _, s := range r.shots {
		if s.ok {
			at, val = append(at, s.at), append(val, s.ms)
		}
	}
	out := quietest(at, val, latencyWindow, stat)
	out.Unit = "ms"
	return out
}

// latencies lists the answered requests' latencies at one depth.
func (r *phaseReport) latencies(front frontKind) []float64 {
	var val []float64
	for _, s := range r.shots {
		if s.ok && s.front == front {
			val = append(val, s.ms)
		}
	}
	return val
}

// inputsPerSecond is the better quartile over equal windows of about one
// second (never fewer than five) of the inputs answered in the window.
func (r *phaseReport) inputsPerSecond() reading {
	wins := max(segments, int(r.Seconds))
	width := r.Seconds / float64(wins)
	count := make([]float64, wins)
	for _, s := range r.shots {
		if k := int(s.at / width); s.ok && k < wins {
			count[k] += float64(s.inputs) / width
		}
	}
	return reading{Value: upperQuartile(count), N: len(r.shots), Unit: "inputs/s", Spread: spread(count)}
}
