package main

import (
	"math/rand"
	"sync"
	"time"

	"radar/internal/adversary"
	"radar/internal/core"
	"radar/internal/quant"
	"radar/internal/serve"
)

const (
	// volleyFlips MSB flips land per volley, each in its own group.
	volleyFlips = 4
	// scrubCycle is the full-sweep period serve.DefaultConfig() sets: a
	// 100 ms scrub tick, every 8th cycle a full DetectAndRecover. Only the
	// full sweep sees a flip that bypassed the write observers.
	scrubCycle = 800 * time.Millisecond
	// drainWait bounds how long the attack waits, after its last volley,
	// for the scrubbers to cover what is still outstanding.
	drainWait = 2 * scrubCycle
)

// volleyPlan chooses how many volleys fit in dur at roughly the wanted
// spacing, and then the exact period that spreads them evenly over the
// scrub cycle. A flip's exposure is a sawtooth in its phase against that
// cycle, so the mean over n volleys repeats only if the n phases do:
// period = cycle·a/n with a coprime to n (and to the number of rotating
// targets, each of which sees every targets-th volley) visits n distinct,
// equally spaced phases whatever the scrubbers' own offsets are.
func volleyPlan(dur, every time.Duration, targets int) (n int, period time.Duration) {
	n = max(int(dur/every), 1)
	for ; ; n++ {
		a := max(int(float64(n)*float64(every)/float64(scrubCycle)+0.5), 1)
		for _, c := range []int{a, a + 1, a - 1} {
			if c >= 1 && gcd(c*targets, n) == 1 {
				return n, time.Duration(float64(scrubCycle) * float64(c) / float64(n))
			}
		}
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// volley is one mounted volley awaiting repair.
type volley struct {
	at     time.Time
	cover  int64 // GroupsRecovered value that covers it
	groups []core.GroupID
}

// target is one (replica, model) pair under attack.
type target struct {
	h       *hosted
	svc     *serve.Service
	mounted int64 // flips mounted so far
	base    int64 // GroupsRecovered when the attack began
	busy    map[core.GroupID]bool
	pending []volley
}

// attackResult is what the adversary side of a phase measured.
type attackResult struct {
	volleys, mounted, repaired int
	exposureMs                 []float64
	uncovered                  int
}

// exposure is the mean time a volley stayed in the weights. Single exposures
// are spread over the whole scrub cycle by design, so the recorded spread is
// taken over the means of five interleaved strata (volley i in stratum
// i mod 5), each of which still covers the cycle evenly.
func (a attackResult) exposure() reading {
	strata := make([][]float64, segments)
	for i, ms := range a.exposureMs {
		strata[i%segments] = append(strata[i%segments], ms)
	}
	var means []float64
	for _, s := range strata {
		if len(s) > 0 {
			means = append(means, mean(s))
		}
	}
	return reading{Value: mean(a.exposureMs), N: len(a.exposureMs), Spread: spread(means)}
}

// attack mounts volleys on rotating targets for dur, polling each
// protector's Stats().GroupsRecovered every millisecond to time how long
// each volley stayed in the weights. A volley never reuses a group that
// still holds an unrepaired flip, so ECC repair stays single-bit and the
// image can return bit-identical.
func attack(d *deployment, dur, every time.Duration, rng *rand.Rand) attackResult {
	targets := make([]*target, len(d.hosted))
	for i, h := range d.hosted {
		targets[i] = &target{h: h, svc: d.replicas[h.replica].svc, base: h.prot.Stats().GroupsRecovered, busy: map[core.GroupID]bool{}}
	}
	n, period := volleyPlan(dur, every, len(targets))
	var res attackResult
	var mu sync.Mutex
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for tick := time.NewTicker(time.Millisecond); ; {
			select {
			case <-stop:
				tick.Stop()
				return
			case <-tick.C:
			}
			mu.Lock()
			for _, t := range targets {
				if len(t.pending) == 0 {
					continue
				}
				done := t.h.prot.Stats().GroupsRecovered - t.base
				for len(t.pending) > 0 && t.pending[0].cover <= done {
					v := t.pending[0]
					t.pending = t.pending[1:]
					res.exposureMs = append(res.exposureMs, ms(time.Since(v.at)))
					res.repaired += len(v.groups)
					for _, g := range v.groups {
						delete(t.busy, g)
					}
				}
			}
			mu.Unlock()
		}
	}()

	start := time.Now()
	for i := 0; i < n; i++ {
		sleepUntil(start.Add(time.Duration(i) * period))
		t := targets[i%len(targets)]
		mu.Lock()
		addrs, groups := pickFlips(t, rng)
		mu.Unlock()
		var at time.Time
		t.svc.Inject(t.h.name, func(m *quant.Model) {
			adversary.Mount(adversary.Target{Model: m, Prot: t.h.prot}, adversary.Volley{Weights: addrs})
			at = time.Now()
		})
		mu.Lock()
		t.mounted += int64(len(addrs))
		t.pending = append(t.pending, volley{at: at, cover: t.mounted, groups: groups})
		mu.Unlock()
		res.volleys++
		res.mounted += len(addrs)
	}
	for deadline := time.Now().Add(drainWait); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		mu.Lock()
		left := 0
		for _, t := range targets {
			left += len(t.pending)
		}
		mu.Unlock()
		if left == 0 {
			break
		}
	}
	close(stop)
	wg.Wait()
	for _, t := range targets {
		res.uncovered += len(t.pending)
	}
	return res
}

// pickFlips draws volleyFlips MSB addresses in distinct groups, none of
// which still holds an unrepaired flip, and marks the groups busy.
func pickFlips(t *target, rng *rand.Rand) ([]quant.BitAddress, []core.GroupID) {
	var addrs []quant.BitAddress
	var groups []core.GroupID
	for len(addrs) < volleyFlips {
		li := rng.Intn(len(t.h.qm.Layers))
		a := quant.BitAddress{LayerIndex: li, WeightIndex: rng.Intn(len(t.h.qm.Layers[li].Q)), Bit: quant.MSB}
		g := t.h.prot.GroupOf(a)
		if t.busy[g] {
			continue
		}
		t.busy[g] = true
		addrs, groups = append(addrs, a), append(groups, g)
	}
	return addrs, groups
}
