package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call — the program under test is not instrumented for this. Parent is the
// ID of the span that caused it (0: none); spans of one request share Req.
type span struct {
	ID      int     `json:"id"`
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
	Parent  int     `json:"parent,omitempty"`
	Req     string  `json:"req,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the measured (untraced) run is spelled.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// cur is the pass now running in the scan section: the parent of the
	// per-layer spans that core's OnLayerScanned hook reports from inside it.
	cur atomic.Int64
}

func (t *tracer) current() int {
	if t == nil {
		return 0
	}
	return int(t.cur.Load())
}

func (t *tracer) setCurrent(id int) {
	if t != nil {
		t.cur.Store(int64(id))
	}
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	now := ms(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, StartMs: now, Parent: parent, Req: req})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := ms(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndMs = now
	t.mu.Unlock()
}

// time runs f inside a span and reports how long it took.
func (t *tracer) time(name string, f func()) time.Duration {
	sp := t.begin(name, 0, "")
	t.setCurrent(sp)
	t0 := time.Now()
	f()
	took := time.Since(t0)
	t.end(sp)
	return took
}

// add records a span whose bounds were measured elsewhere (a stage reported
// by the replica's own /v1/debug/traces).
func (t *tracer) add(name string, start time.Time, durMs float64, parent int, req string) {
	if t == nil {
		return
	}
	s := ms(start.Sub(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, StartMs: s, EndMs: s + durMs, Parent: parent, Req: req})
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
