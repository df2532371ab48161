package cpu

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// goroutineID reads the calling goroutine's id from its stack header,
// "goroutine N [running]:".
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestParallel checks Parallel's contract over worker counts below, at and
// above n: Workers reports the resolved count, every index runs exactly
// once, worker ids stay in [0, workers) with workers clamped to n (and
// non-positive meaning GOMAXPROCS), n = 0 makes no call, and one worker
// runs on the caller's goroutine.
func TestParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for _, workers := range []int{-1, 0, 1, 2, 4, 16} {
		for _, n := range []int{0, 1, 3, 100} {
			t.Run(fmt.Sprintf("workers%d_n%d", workers, n), func(t *testing.T) {
				want := workers
				if want <= 0 {
					want = 3 // GOMAXPROCS
				}
				want = min(want, n)
				if got := Workers(workers, n); got != want {
					t.Fatalf("Workers(%d, %d) = %d, want %d", workers, n, got, want)
				}
				caller := goroutineID()
				runs := make([]atomic.Int32, n)
				var calls, badWorker, offCaller atomic.Int32
				Parallel(workers, n, func(w, i int) {
					calls.Add(1)
					runs[i].Add(1)
					if w < 0 || w >= max(want, 1) {
						badWorker.Store(int32(w) + 1)
					}
					if want <= 1 && goroutineID() != caller {
						offCaller.Add(1)
					}
				})
				if n == 0 && calls.Load() != 0 {
					t.Fatalf("n = 0 made %d calls", calls.Load())
				}
				for i := range runs {
					if r := runs[i].Load(); r != 1 {
						t.Fatalf("index %d ran %d times", i, r)
					}
				}
				if w := badWorker.Load(); w != 0 {
					t.Fatalf("worker id %d outside [0, %d)", w-1, max(want, 1))
				}
				if offCaller.Load() != 0 {
					t.Fatalf("%d calls left the caller's goroutine with one worker", offCaller.Load())
				}
			})
		}
	}
}

// TestParallelRunsWorkersAtOnce: with workers ≥ n, n tasks that each wait
// for all the others finish, so each ran on a worker of its own, under a
// distinct id below n.
func TestParallelRunsWorkersAtOnce(t *testing.T) {
	const n = 4
	var arrived atomic.Int32
	all := make(chan struct{})
	var ids [n]atomic.Bool
	Parallel(16, n, func(w, _ int) {
		if w >= n || ids[w].Swap(true) {
			t.Errorf("worker id %d reused or outside [0, %d)", w, n)
		}
		if arrived.Add(1) == n {
			close(all)
		}
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			t.Errorf("only %d of %d tasks ran at once", arrived.Load(), n)
		}
	})
}
