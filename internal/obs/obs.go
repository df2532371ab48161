// Package obs is the dependency-free observability kernel shared by every
// layer of the RADAR serving stack: a Prometheus-text-format metrics
// registry (atomic counters, gauges, fixed-bucket histograms, all with
// label support) plus the bounded per-request trace ring behind the
// /v1/debug/traces endpoint.
//
// Design constraints, in order:
//
//   - Hot paths never take a lock. Counter.Add, Gauge.Set and
//     Histogram.Observe are pure atomics; the only mutexes guard child
//     creation (done once at wiring time) and the trace ring (fed only by
//     explicitly traced requests).
//   - Exposition is the cold path. Registry.WriteTo walks families in
//     registration order and formats `# HELP`/`# TYPE` comment lines plus
//     one sample line per child, so the output is parseable by any
//     Prometheus scraper — and by the minimal line-checkers in the smoke
//     scripts.
//   - Registration is idempotent: asking for an already-registered family
//     with the same type and label names returns the existing one, which
//     is what lets a hot-added model rebind the same per-model series a
//     removed predecessor used.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ExpositionContentType is the Content-Type of the /v1/metrics responses
// (the Prometheus text exposition format, version 0.0.4).
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// ValidName reports whether name is a legal metric or label name
// (Prometheus charset: letters, digits, underscores and colons, not
// starting with a digit). The repo-wide radar_ naming convention is
// enforced separately by the lint tests in internal/serve and
// internal/fleet.
func ValidName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// child is one labeled instance of a metric family.
type child interface {
	// writeSamples emits the child's sample lines. labels is the child's
	// rendered label set without braces (`model="a"`), possibly empty.
	writeSamples(w *bufio.Writer, name, labels string)
}

// family is one metric name: its metadata plus the labeled children.
type family struct {
	name    string
	help    string
	typ     metricType
	labels  []string  // label names, fixed at registration
	buckets []float64 // histogram upper bounds (sorted, no +Inf)

	mu       sync.RWMutex
	children map[string]child // keyed by joined label values
	order    []string
}

// labelKey joins label values into the child map key.
func labelKey(values []string) string { return strings.Join(values, "\xff") }

// renderLabels formats `k1="v1",k2="v2"` for a child's label values.
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var sb strings.Builder
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	return sb.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `\"`+"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func escapeHelp(v string) string {
	if !strings.ContainsAny(v, `\`+"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// get returns the child for values, creating it with mk on first use.
func (f *family) get(values []string, mk func() child) child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	k := labelKey(values)
	f.mu.RLock()
	c, ok := f.children[k]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok = f.children[k]; ok {
		return c
	}
	c = mk()
	f.children[k] = c
	f.order = append(f.order, k)
	return c
}

// Registry is an ordered set of metric families. The zero value is not
// usable; build with NewRegistry.
type Registry struct {
	mu     sync.RWMutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register returns the family for name, creating it on first registration
// and validating the metadata on re-registration (same type and label
// names required — a name means one thing per registry).
func (r *Registry) register(name, help string, typ metricType, labels []string, buckets []float64) *family {
	if !ValidName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	for _, l := range labels {
		if !ValidName(l) {
			panic("obs: invalid label name " + strconv.Quote(l) + " on metric " + name)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic("obs: conflicting re-registration of metric " + name)
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic("obs: conflicting label names on metric " + name)
			}
		}
		if typ == typeHistogram {
			// A silently returned family with different buckets would put
			// observations in unexpected buckets — same one-name-one-meaning
			// rule as type and label names. Compare sorted, matching how
			// the family stores them.
			b := append([]float64(nil), buckets...)
			sort.Float64s(b)
			if len(b) != len(f.buckets) {
				panic("obs: conflicting buckets on metric " + name)
			}
			for i := range b {
				if b[i] != f.buckets[i] {
					panic("obs: conflicting buckets on metric " + name)
				}
			}
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]child),
	}
	sort.Float64s(f.buckets)
	r.fams = append(r.fams, f)
	r.byName[name] = f
	return f
}

// Counter registers (or finds) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{fam: r.register(name, help, typeCounter, labels, nil)}
}

// Gauge registers (or finds) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{fam: r.register(name, help, typeGauge, labels, nil)}
}

// Histogram registers (or finds) a fixed-bucket histogram family. buckets
// are the upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{fam: r.register(name, help, typeHistogram, labels, buckets)}
}

// Names returns the registered family names in registration order — the
// input of the metric-naming lint tests.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.fams))
	for i, f := range r.fams {
		out[i] = f.name
	}
	return out
}

// Prune drops every child whose value for label equals value, across all
// families — how a hot-removed model's per-model series leave the
// exposition. Families without that label are untouched.
func (r *Registry) Prune(label, value string) {
	r.mu.RLock()
	fams := append([]*family(nil), r.fams...)
	r.mu.RUnlock()
	for _, f := range fams {
		idx := -1
		for i, l := range f.labels {
			if l == label {
				idx = i
				break
			}
		}
		if idx < 0 {
			continue
		}
		f.mu.Lock()
		for k := range f.children {
			if strings.Split(k, "\xff")[idx] == value {
				delete(f.children, k)
				for i, o := range f.order {
					if o == k {
						f.order = append(f.order[:i], f.order[i+1:]...)
						break
					}
				}
			}
		}
		f.mu.Unlock()
	}
}

// WriteTo writes the whole registry in the Prometheus text exposition
// format: families in registration order, each with its `# HELP` and
// `# TYPE` lines followed by one sample line per child (histograms emit
// the cumulative _bucket series plus _sum and _count). It implements
// io.WriterTo.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	r.mu.RLock()
	fams := append([]*family(nil), r.fams...)
	r.mu.RUnlock()
	for _, f := range fams {
		f.mu.RLock()
		keys := append([]string(nil), f.order...)
		children := make([]child, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.RUnlock()
		if len(children) == 0 {
			continue
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for i, c := range children {
			values := strings.Split(keys[i], "\xff")
			if len(f.labels) == 0 {
				values = nil
			}
			c.writeSamples(bw, f.name, renderLabels(f.labels, values))
		}
	}
	err := bw.Flush()
	return cw.n, err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// formatValue renders a sample value: integers print without exponent or
// trailing zeros, everything else in shortest-round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeSample(w *bufio.Writer, name, labels, value string) {
	w.WriteString(name)
	if labels != "" {
		w.WriteByte('{')
		w.WriteString(labels)
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(value)
	w.WriteByte('\n')
}

// --- counters -------------------------------------------------------------

// Counter is a monotonically increasing int64, updated with atomics.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) writeSamples(w *bufio.Writer, name, labels string) {
	writeSample(w, name, labels, strconv.FormatInt(c.v.Load(), 10))
}

// counterFunc exposes an externally maintained monotonic value (an
// existing atomic counter elsewhere in the stack) as a counter sample.
type counterFunc struct {
	f func() float64
}

func (c *counterFunc) writeSamples(w *bufio.Writer, name, labels string) {
	writeSample(w, name, labels, formatValue(c.f()))
}

// CounterVec is a counter family handle.
type CounterVec struct {
	fam *family
}

// With returns the counter child for the given label values, creating it
// on first use.
func (v *CounterVec) With(labelValues ...string) *Counter {
	c := v.fam.get(labelValues, func() child { return &Counter{} })
	cc, ok := c.(*Counter)
	if !ok {
		panic("obs: metric " + v.fam.name + " child is function-backed")
	}
	return cc
}

// Func binds the child for the given label values to f, read at scrape
// time — the bridge for counters that already live as atomics elsewhere
// (core.Protector.Stats, the engine's stage clock).
func (v *CounterVec) Func(f func() float64, labelValues ...string) {
	v.fam.get(labelValues, func() child { return &counterFunc{f: f} })
}

// --- gauges ---------------------------------------------------------------

// Gauge is a float64 that can go up and down, updated with atomics.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) writeSamples(w *bufio.Writer, name, labels string) {
	writeSample(w, name, labels, formatValue(g.Value()))
}

type gaugeFunc struct {
	f func() float64
}

func (g *gaugeFunc) writeSamples(w *bufio.Writer, name, labels string) {
	writeSample(w, name, labels, formatValue(g.f()))
}

// GaugeVec is a gauge family handle.
type GaugeVec struct {
	fam *family
}

// With returns the gauge child for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	c := v.fam.get(labelValues, func() child { return &Gauge{} })
	gg, ok := c.(*Gauge)
	if !ok {
		panic("obs: metric " + v.fam.name + " child is function-backed")
	}
	return gg
}

// Func binds the child for the given label values to f, evaluated at
// scrape time — queue depths, table occupancy, ring sizes.
func (v *GaugeVec) Func(f func() float64, labelValues ...string) {
	v.fam.get(labelValues, func() child { return &gaugeFunc{f: f} })
}

// --- histograms -----------------------------------------------------------

// Histogram is a fixed-bucket histogram: one atomic count per bucket, an
// atomic observation count and a CAS-maintained float64 sum. Observe is
// lock-free, so any number of inference workers can share one child.
type Histogram struct {
	buckets []float64 // upper bounds, sorted; +Inf implicit
	counts  []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{buckets: buckets, counts: make([]atomic.Int64, len(buckets)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) writeSamples(w *bufio.Writer, name, labels string) {
	cum := int64(0)
	for i, ub := range h.buckets {
		cum += h.counts[i].Load()
		le := `le="` + formatValue(ub) + `"`
		if labels != "" {
			le = labels + "," + le
		}
		writeSample(w, name+"_bucket", le, strconv.FormatInt(cum, 10))
	}
	cum += h.counts[len(h.buckets)].Load()
	le := `le="+Inf"`
	if labels != "" {
		le = labels + "," + le
	}
	writeSample(w, name+"_bucket", le, strconv.FormatInt(cum, 10))
	writeSample(w, name+"_sum", labels, formatValue(h.Sum()))
	writeSample(w, name+"_count", labels, strconv.FormatInt(h.count.Load(), 10))
}

// HistogramVec is a histogram family handle.
type HistogramVec struct {
	fam *family
}

// With returns the histogram child for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	c := v.fam.get(labelValues, func() child { return newHistogram(v.fam.buckets) })
	hh, ok := c.(*Histogram)
	if !ok {
		panic("obs: metric " + v.fam.name + " child is not a histogram")
	}
	return hh
}
