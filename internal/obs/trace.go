package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Stage is one timed span inside a traced request (queue wait, batch
// assembly, verified fetch, forward pass, ...).
type Stage struct {
	Name string  `json:"name"`
	Ms   float64 `json:"ms"`
}

// Trace is the record of one request's trip through the stack. Replica is
// empty on a replica's own ring and filled in by the fleet router when it
// merges trace dumps across the fleet.
type Trace struct {
	ID      string    `json:"id"`
	Model   string    `json:"model"`
	Replica string    `json:"replica,omitempty"`
	Start   time.Time `json:"start"`
	TotalMs float64   `json:"total_ms"`
	Stages  []Stage   `json:"stages"`
}

// TraceRing is a bounded in-memory ring of completed traces. Only
// explicitly traced requests (those carrying an X-Request-Id) pay the
// mutex; the inference hot path for untraced Go-API calls never touches
// it.
type TraceRing struct {
	mu   sync.Mutex
	buf  []Trace
	next int
	full bool
}

// NewTraceRing returns a ring keeping the last size traces (minimum 1).
func NewTraceRing(size int) *TraceRing {
	if size < 1 {
		size = 1
	}
	return &TraceRing{buf: make([]Trace, size)}
}

// Add records a completed trace, evicting the oldest when full.
func (r *TraceRing) Add(t Trace) {
	r.mu.Lock()
	r.buf[r.next] = t
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Last returns up to n traces, newest first.
func (r *TraceRing) Last(n int) []Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	size := r.next
	if r.full {
		size = len(r.buf)
	}
	if n <= 0 || n > size {
		n = size
	}
	out := make([]Trace, 0, n)
	for i := 0; i < n; i++ {
		idx := r.next - 1 - i
		if idx < 0 {
			idx += len(r.buf)
		}
		out = append(out, r.buf[idx])
	}
	return out
}

// NewRequestID mints a 16-hex-char request id for requests that arrive
// without an X-Request-Id header.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on the supported platforms; a zero id
		// still traces, it just isn't unique.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}
