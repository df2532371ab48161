package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestJobLifecycle is the submit → poll pending → wait → completed round
// trip, with the workers wedged long enough to observe the pending state
// deterministically.
func TestJobLifecycle(t *testing.T) {
	svc, b, _ := openTiny(t, 1, []ModelOption{WithScrub(0)})
	x, _ := b[0].Test.Batch(0, 4)

	// Reference answer through the sync path first.
	ref, err := svc.Infer(context.Background(), Request{Input: sample(x, 0)})
	if err != nil {
		t.Fatal(err)
	}

	release := wedge(t, svc, "m0")
	defer release()
	id, err := svc.Submit(context.Background(), Request{Model: "m0", Input: sample(x, 0)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err := svc.Poll(id)
	if err != nil {
		t.Fatalf("Poll: %v", err)
	}
	if st.State != JobPending || st.Model != "m0" || st.Result != nil {
		t.Fatalf("pre-completion status: %+v", st)
	}

	release()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := svc.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if res.Class != ref.Class {
		t.Fatalf("job answered class %d, sync path %d", res.Class, ref.Class)
	}
	// The result stays pollable after Wait (until the TTL).
	st, err = svc.Poll(id)
	if err != nil {
		t.Fatalf("post-Wait Poll: %v", err)
	}
	if st.State != JobDone || st.Result == nil || st.Result.Class != ref.Class {
		t.Fatalf("post-completion status: %+v", st)
	}

	if _, err := svc.Poll(JobID("job-ffffffff")); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job Poll: %v", err)
	}
	if _, err := svc.Wait(ctx, JobID("job-ffffffff")); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job Wait: %v", err)
	}
}

// TestJobCancelledReaped: cancelling a job's submission context before it
// runs drops its queued work and removes it from the table.
func TestJobCancelledReaped(t *testing.T) {
	svc, b, _ := openTiny(t, 1, []ModelOption{WithScrub(0)})
	x, _ := b[0].Test.Batch(0, 1)
	release := wedge(t, svc, "m0")
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	id, err := svc.Submit(ctx, Request{Input: sample(x, 0)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDone := make(chan error, 1)
	go func() {
		_, err := svc.Wait(context.Background(), id)
		waitDone <- err
	}()
	// Let Wait park on the job before cancelling; if cancellation still
	// wins the race, the reap turns Wait's lookup into ErrUnknownJob,
	// which the assertion below also accepts.
	time.Sleep(20 * time.Millisecond)
	cancel()

	// The watcher reaps asynchronously; poll until the ID is gone.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := svc.Poll(id); errors.Is(err, ErrUnknownJob) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled job never reaped from the table")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-waitDone:
		if !errors.Is(err, ErrJobCancelled) && !errors.Is(err, ErrUnknownJob) {
			t.Fatalf("Wait on cancelled job returned %v, want ErrJobCancelled (or ErrUnknownJob when the reap wins)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait never returned for the cancelled job")
	}
	if n, _, _ := svc.jobs.stats(); n != 0 {
		t.Fatalf("job table still holds %d entries", n)
	}
}

// TestJobTableBounded: the table refuses submissions past its capacity
// with a typed ErrJobsFull, and frees the slot again once jobs expire.
func TestJobTableBounded(t *testing.T) {
	svc, b, _ := openTiny(t, 1, []ModelOption{WithScrub(0)})
	svc.jobs.cap, svc.jobs.ttl = 1, 10*time.Millisecond
	x, _ := b[0].Test.Batch(0, 2)
	release := wedge(t, svc, "m0")
	defer release()

	id, err := svc.Submit(context.Background(), Request{Input: sample(x, 0)})
	if err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	if _, err := svc.Submit(context.Background(), Request{Input: sample(x, 1)}); !errors.Is(err, ErrJobsFull) {
		t.Fatalf("over-capacity Submit returned %v, want ErrJobsFull", err)
	}

	release()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := svc.Wait(ctx, id); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	// Past the TTL the finished job is reaped on the next touch, freeing
	// capacity and invalidating the old ID.
	time.Sleep(20 * time.Millisecond)
	if _, err := svc.Submit(context.Background(), Request{Input: sample(x, 0)}); err != nil {
		t.Fatalf("Submit after TTL reap: %v", err)
	}
	if _, err := svc.Poll(id); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("expired job still pollable: %v", err)
	}
}

// TestSubmitQueueFullTyped: the async path never parks — once the
// bounded request queue is saturated, Submit fails fast with
// ErrQueueFull instead of blocking the caller.
func TestSubmitQueueFullTyped(t *testing.T) {
	svc, b, _ := openTiny(t, 1, []ModelOption{WithScrub(0), oneSlot})
	x, _ := b[0].Test.Batch(0, 1)
	release := wedge(t, svc, "m0")
	defer release()

	deadline := time.Now().Add(10 * time.Second)
	for {
		t0 := time.Now()
		_, err := svc.Submit(context.Background(), Request{Input: sample(x, 0)})
		if errors.Is(err, ErrQueueFull) {
			if dt := time.Since(t0); dt > time.Second {
				t.Fatalf("queue-full Submit took %v — it must not block", dt)
			}
			break
		}
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never reported full")
		}
	}
	release()
}

// TestJobCancelAPI is the Service.Cancel contract: a pending job is
// cancelled and reaped (freeing its table slot before the forward pass
// ever runs), a finished job is removed but reports its terminal state,
// and unknown IDs stay typed.
func TestJobCancelAPI(t *testing.T) {
	svc, b, _ := openTiny(t, 1, []ModelOption{WithScrub(0)})
	x, _ := b[0].Test.Batch(0, 2)
	release := wedge(t, svc, "m0")
	defer release()

	id, err := svc.Submit(context.Background(), Request{Input: sample(x, 0)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err := svc.Cancel(id)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if st.State != JobCancelled || st.ID != id {
		t.Fatalf("Cancel status: %+v", st)
	}
	if n, _, _ := svc.jobs.stats(); n != 0 {
		t.Fatalf("cancelled job still holds a slot (%d active)", n)
	}
	if _, err := svc.Poll(id); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Poll after Cancel: %v, want ErrUnknownJob", err)
	}
	if _, err := svc.Cancel(id); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("double Cancel: %v, want ErrUnknownJob", err)
	}

	// Cancelling a completed job removes it but reports the done state.
	release()
	id2, err := svc.Submit(context.Background(), Request{Input: sample(x, 1)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := svc.Wait(ctx, id2); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	st, err = svc.Cancel(id2)
	if err != nil {
		t.Fatalf("Cancel done job: %v", err)
	}
	if st.State != JobDone || st.Result == nil {
		t.Fatalf("Cancel of done job lost its terminal state: %+v", st)
	}
	if _, err := svc.Poll(id2); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("done job survived its DELETE: %v", err)
	}
}

// TestJobsSubmittedNeverFalls: a submission rejected after its slot was
// reserved (abort) must not lower radar_jobs_submitted_total — a scrape
// between create and abort would read the fall as a counter reset.
func TestJobsSubmittedNeverFalls(t *testing.T) {
	jt := newJobTable()
	j, err := jt.create("m0", func() {})
	if err != nil {
		t.Fatal(err)
	}
	_, before, _ := jt.stats()
	jt.abort(j.id)
	active, after, _ := jt.stats()
	if after < before {
		t.Fatalf("submitted fell %d → %d across abort", before, after)
	}
	if active != 0 {
		t.Fatalf("aborted job still holds a slot (%d active)", active)
	}
}

// TestJobIDsCarryInstanceTag: IDs embed the table's random instance tag so
// two replicas of one deployment never mint colliding IDs — the property
// a fleet router's tag routing depends on — and JobID.Tag reads it back.
func TestJobIDsCarryInstanceTag(t *testing.T) {
	svc, b, _ := openTiny(t, 1, []ModelOption{WithScrub(0)})
	x, _ := b[0].Test.Batch(0, 1)
	id, err := svc.Submit(context.Background(), Request{Input: sample(x, 0)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	want := "job-" + svc.jobs.instance + "-"
	if len(svc.jobs.instance) != 16 {
		t.Fatalf("instance tag %q is %d hex digits, want 16 (64 bits)",
			svc.jobs.instance, len(svc.jobs.instance))
	}
	if len(id) != len("job-xxxxxxxxxxxxxxxx-00000000") || string(id[:len(want)]) != want {
		t.Fatalf("job ID %q does not carry instance tag %q", id, svc.jobs.instance)
	}
	if tag := id.Tag(); tag != svc.jobs.instance {
		t.Fatalf("JobID(%q).Tag() = %q, want %q", id, tag, svc.jobs.instance)
	}
	for _, bad := range []JobID{"", "job-", "job--1", "job-abc", "job-abc-", "task-abc-1"} {
		if tag := bad.Tag(); tag != "" {
			t.Errorf("JobID(%q).Tag() = %q, want \"\"", bad, tag)
		}
	}
}
