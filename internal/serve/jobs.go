package serve

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// ErrUnknownJob is returned when a job ID is not in the table — never
// submitted, cancelled and reaped, or expired past the retention TTL.
var ErrUnknownJob = errors.New("serve: unknown job")

// ErrJobsFull is returned by Submit when the bounded job table is at
// capacity even after reaping expired entries. The HTTP front-end maps it
// to 429.
var ErrJobsFull = errors.New("serve: job table full")

// ErrJobCancelled is returned by Wait for a job whose submission context
// was cancelled before its result was computed.
var ErrJobCancelled = errors.New("serve: job cancelled")

// JobID identifies one async inference job for Poll/Wait and the
// /v1/jobs/{id} route. It has the form job-<tag>-<seq>: tag names the job
// table that minted it, one per service instance, and seq counts that
// table's jobs.
type JobID string

// Tag returns the instance tag of the job table that minted id — what a
// fleet router routes a poll or cancel by — or "" when id is not of the
// form job-<tag>-<seq>.
func (id JobID) Tag() string {
	rest, ok := strings.CutPrefix(string(id), "job-")
	if tag, seq, _ := strings.Cut(rest, "-"); ok && tag != "" && seq != "" {
		return tag
	}
	return ""
}

// JobState is a job's lifecycle position.
type JobState string

const (
	// JobPending: submitted, waiting in (or moving through) the batch queue.
	JobPending JobState = "pending"
	// JobDone: the result is available via Poll or Wait.
	JobDone JobState = "done"
	// JobCancelled: the submission context was cancelled — or the job was
	// cancelled via Cancel / DELETE /v1/jobs/{id} — before completion; the
	// job is reaped from the table right after entering this state.
	JobCancelled JobState = "cancelled"
)

// JobStatus is a point-in-time view of one job (the Poll answer and the
// GET /v1/jobs/{id} body). Result is set only in state "done".
type JobStatus struct {
	ID     JobID        `json:"id"`
	Model  string       `json:"model"`
	State  JobState     `json:"state"`
	Result *InferResult `json:"result,omitempty"`
	// AgeMs is milliseconds since submission.
	AgeMs int64 `json:"age_ms"`
}

// job is one table entry. Mutable fields are guarded by the table mutex;
// done is closed exactly once on completion or cancellation (via finish).
type job struct {
	id      JobID
	model   string
	created time.Time
	done    chan struct{}
	// cancel tears down the job's own context layer: dropping its queued
	// work and waking its watcher. Set at creation, never mutated after.
	cancel context.CancelFunc

	state    JobState
	res      InferResult
	finished time.Time
}

// jobTable is the bounded async-job store. Submission reserves a slot (so
// capacity is enforced before any work is queued), completion keeps the
// entry around for ttl so clients can poll the result, and cancelled jobs
// are removed immediately. Expired entries are reaped lazily on every
// create and on any poll that touches them — no background sweeper
// goroutine is needed.
type jobTable struct {
	mu       sync.Mutex
	cap      int
	ttl      time.Duration
	seq      uint64
	instance string // random per-table tag making IDs unique across replicas
	jobs     map[JobID]*job

	submitted int64 // lifetime jobs accepted
	cancelled int64 // lifetime jobs cancelled before completion
}

// jobCapacity bounds the async job table: submissions beyond it fail with
// ErrJobsFull instead of growing memory. jobTTL is how long a completed
// job's result stays pollable.
const (
	jobCapacity = 1024
	jobTTL      = time.Minute
)

func newJobTable() *jobTable {
	// Job IDs carry a per-instance tag so IDs minted by different replicas
	// of the same deployment never collide — a fleet router routes polls
	// and cancels by the tag (JobID.Tag). The tag is 64 crypto-random
	// bits: seq counters all start at 1, so a tag collision between two
	// replicas would make their IDs collide systematically, and the ID is
	// opaque to clients so the extra width costs nothing.
	return &jobTable{
		cap:      jobCapacity,
		ttl:      jobTTL,
		instance: newInstanceTag(),
		jobs:     make(map[JobID]*job),
	}
}

// newInstanceTag draws the 16-hex-digit per-table tag from crypto/rand,
// falling back to math/rand only if the entropy source is unreadable.
func newInstanceTag() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return fmt.Sprintf("%016x", rand.Uint64())
	}
	return fmt.Sprintf("%016x", binary.BigEndian.Uint64(b[:]))
}

// create reserves a slot for a new pending job, reaping expired finished
// entries first; a table still at capacity returns ErrJobsFull.
func (t *jobTable) create(model string, cancel context.CancelFunc) (*job, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.jobs) >= t.cap {
		t.reapLocked(time.Now())
	}
	if len(t.jobs) >= t.cap {
		return nil, fmt.Errorf("%w (%d jobs)", ErrJobsFull, len(t.jobs))
	}
	t.seq++
	j := &job{
		id:      JobID(fmt.Sprintf("job-%s-%08x", t.instance, t.seq)),
		model:   model,
		created: time.Now(),
		done:    make(chan struct{}),
		cancel:  cancel,
		state:   JobPending,
	}
	t.jobs[j.id] = j
	return j, nil
}

// reapLocked deletes finished jobs older than the retention TTL.
func (t *jobTable) reapLocked(now time.Time) {
	for id, j := range t.jobs {
		if j.state == JobDone && now.Sub(j.finished) > t.ttl {
			delete(t.jobs, id)
		}
	}
}

// abort drops a job whose submission failed after the slot was reserved
// (full queue, server stopping); accept never counted it.
func (t *jobTable) abort(id JobID) {
	t.mu.Lock()
	delete(t.jobs, id)
	t.mu.Unlock()
}

// accept counts a job whose input is enqueued as submitted, then watches
// it on its own goroutine. Counting only here keeps
// radar_jobs_submitted_total monotone: a rejected submission is never
// counted, so nothing is ever un-counted.
func (t *jobTable) accept(j *job, ctx context.Context, ch <-chan InferResult) {
	t.mu.Lock()
	t.submitted++
	t.mu.Unlock()
	go t.watch(j, ctx, ch)
}

// finish moves a pending job into a terminal state, closing done exactly
// once. It returns false when the job already finished — the loser of a
// completion/cancellation race must not touch the entry again. Cancelled
// jobs are reaped immediately; done jobs stay for the retention TTL.
func (t *jobTable) finish(j *job, state JobState, res *InferResult) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if j.state != JobPending {
		return false
	}
	j.state = state
	j.finished = time.Now()
	if res != nil {
		j.res = *res
	}
	if state == JobCancelled {
		delete(t.jobs, j.id)
		t.cancelled++
	}
	close(j.done)
	return true
}

// watch runs on its own goroutine per in-flight job (see accept): it
// completes the job when the batch workers answer, or cancels and reaps
// it when the job context is done first (submission context cancelled,
// or an explicit Cancel tearing down the job's own context layer).
// Because results arrive on a buffered channel, a late answer to a
// cancelled job is simply dropped; finish resolves the race so done
// closes exactly once. The job's cancel func is released on exit either
// way.
func (t *jobTable) watch(j *job, ctx context.Context, ch <-chan InferResult) {
	defer j.cancel()
	select {
	case res := <-ch:
		t.finish(j, JobDone, &res)
	case <-ctx.Done():
		t.finish(j, JobCancelled, nil)
	}
}

// cancel implements DELETE /v1/jobs/{id}: a pending job's context layer is
// torn down (dropping its queued work and waking its watcher) and the
// entry reaped; a finished job is simply removed from the table. Either
// way the returned status is the job's final state, and the ID is unknown
// from then on.
func (t *jobTable) cancel(id JobID) (JobStatus, error) {
	j, err := t.get(id)
	if err != nil {
		return JobStatus{}, err
	}
	j.cancel()
	if !t.finish(j, JobCancelled, nil) {
		// Already done: DELETE still removes the resource.
		t.mu.Lock()
		delete(t.jobs, id)
		t.mu.Unlock()
	}
	return t.status(j), nil
}

// get returns the live table entry (expired entries are reaped on touch).
func (t *jobTable) get(id JobID) (*job, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	if j.state == JobDone && time.Since(j.finished) > t.ttl {
		delete(t.jobs, id)
		return nil, fmt.Errorf("%w %q (expired)", ErrUnknownJob, id)
	}
	return j, nil
}

// status snapshots a job under the table lock.
func (t *jobTable) status(j *job) JobStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := JobStatus{
		ID:    j.id,
		Model: j.model,
		State: j.state,
		AgeMs: time.Since(j.created).Milliseconds(),
	}
	if j.state == JobDone {
		res := j.res
		st.Result = &res
	}
	return st
}

// stats returns the jobs held now, and the lifetime counts of jobs
// accepted and of jobs cancelled before completion.
func (t *jobTable) stats() (active int, submitted, cancelled int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.jobs), t.submitted, t.cancelled
}
