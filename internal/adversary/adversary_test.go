package adversary

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"radar/internal/attack"
	"radar/internal/core"
	"radar/internal/model"
	"radar/internal/quant"
)

func tinyTarget(t *testing.T, correct bool) (Target, [][]int8) {
	t.Helper()
	b := model.Load(model.TinySpec())
	cfg := core.DefaultConfig(16)
	cfg.Correct = correct
	p := core.Protect(b.QModel, cfg)
	return Target{Model: b.QModel, Prot: p}, b.QModel.Snapshot()
}

func modelEquals(m *quant.Model, snap [][]int8) bool {
	for li, l := range m.Layers {
		for i, v := range l.Q {
			if v != snap[li][i] {
				return false
			}
		}
	}
	return true
}

func TestNewKnowsAllNames(t *testing.T) {
	for _, n := range Names() {
		atk, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		if atk.Name() != n {
			t.Fatalf("attacker %q reports name %q", n, atk.Name())
		}
	}
	if _, err := New("nope"); err == nil {
		t.Fatal("unknown attacker name must error")
	}
}

func TestPlansAreDeterministic(t *testing.T) {
	tgt, _ := tinyTarget(t, false)
	opt := Options{Flips: 24, Windows: 6, Seed: 11}
	for _, n := range Names() {
		atk, _ := New(n)
		a := atk.Plan(tgt, opt, rand.New(rand.NewSource(opt.Seed)))
		b := atk.Plan(tgt, opt, rand.New(rand.NewSource(opt.Seed)))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed produced different plans", n)
		}
		total := 0
		for _, v := range a {
			total += v.Size()
		}
		if total > opt.Flips {
			t.Fatalf("%s: plan spends %d flips, budget %d", n, total, opt.Flips)
		}
	}
}

func TestRateModelPricesRowhammerPhysics(t *testing.T) {
	r := DefaultRateModel()
	spf := r.SecondsPerFlip()
	// One 28-cycle row miss, then 2 × 50k − 1 42-cycle row conflicts:
	// 4 199 986 cycles at 1 GHz.
	if got := math.Float64bits(spf); got != 0x3f7134012837f14d {
		t.Fatalf("seconds per flip = %v (bits %#x), want 0.004199986 (bits 0x3f7134012837f14d)", spf, got)
	}
	cap := r.FlipsPerWindow(100 * time.Millisecond)
	if cap < 15 || cap > 35 {
		t.Fatalf("flips per 100ms window = %d, want ≈ 23", cap)
	}
	if r.FlipsPerWindow(0) != 0 {
		t.Fatal("unknown window length must waive the cap")
	}
	if r.FlipsPerWindow(time.Microsecond) != 1 {
		t.Fatal("a window shorter than one flip still admits a carried-over flip")
	}
}

func TestRateCapBoundsEveryVolley(t *testing.T) {
	tgt, _ := tinyTarget(t, false)
	opt := Options{
		Flips: 500, Windows: 5,
		Rate: DefaultRateModel(), ScrubEvery: 100 * time.Millisecond, Seed: 3,
	}
	cap := opt.CapPerWindow()
	if cap <= 0 {
		t.Fatal("expected a finite cap")
	}
	for _, n := range Names() {
		atk, _ := New(n)
		for w, v := range atk.Plan(tgt, opt, rand.New(rand.NewSource(1))) {
			if v.Size() > cap {
				t.Fatalf("%s: window %d volley %d flips exceeds cap %d", n, w, v.Size(), cap)
			}
		}
	}
}

// TestScrubTimerBeatsObliviousOnHorizonSurvival: against a sweep that
// re-verifies the whole model at every window's tick, the schedule-aware
// attacker has every flip still live at the campaign horizon, while the
// oblivious attacker loses every flip mounted before the last tick.
func TestScrubTimerBeatsObliviousOnHorizonSurvival(t *testing.T) {
	liveAt := func(name string) (live, mounted int) {
		tgt, _ := tinyTarget(t, false)
		atk, _ := New(name)
		c := NewCampaign(tgt, atk, Options{Flips: 12, Windows: 8, Seed: 5})
		c.Run()
		out := c.Outcome()
		return out.Mounted - out.Detected, out.Mounted
	}
	stLive, stMounted := liveAt("scrub-timer")
	obLive, _ := liveAt("oblivious")
	if stLive != stMounted {
		t.Fatalf("scrub-timer: %d/%d flips live at horizon, want all", stLive, stMounted)
	}
	if stLive <= obLive {
		t.Fatalf("scrub-timer live=%d must beat oblivious live=%d", stLive, obLive)
	}
}

// TestScrubTimerCampaignIsExactlyCorrectable: the single-bit-per-group
// campaign is the ECC path's best case — settle restores the pre-attack
// bytes exactly, with zero weights zeroed.
func TestScrubTimerCampaignIsExactlyCorrectable(t *testing.T) {
	tgt, snap := tinyTarget(t, true)
	atk, _ := New("scrub-timer")
	c := NewCampaign(tgt, atk, Options{Flips: 10, Windows: 6, Seed: 9})
	c.Run()
	c.Settle()
	out := c.Outcome()
	if out.Detected != out.Mounted || out.Survived != 0 {
		t.Fatalf("settle should catch all single MSB flips: %+v", out)
	}
	if out.WeightsZeroed != 0 || out.GroupsCorrected != int64(out.Mounted) {
		t.Fatalf("want all %d groups ECC-corrected, got corrected=%d zeroed=%d",
			out.Mounted, out.GroupsCorrected, out.GroupsZeroed)
	}
	if !modelEquals(tgt.Model, snap) {
		t.Fatal("corrected model is not bit-identical to the pre-attack image")
	}
}

// TestBelowThresholdEvadesSettle: about half the paired flips produce a
// zero checksum delta under the secret masking and survive even the final
// full sweep. Whether a pair cancels does not depend on the defender's
// schedule, so the count is pinned exactly: a check that sees what the
// signature cannot must show up here as fewer survivors.
func TestBelowThresholdEvadesSettle(t *testing.T) {
	tgt, _ := tinyTarget(t, false)
	atk, _ := New("below-threshold")
	c := NewCampaign(tgt, atk, Options{Flips: 60, Windows: 4, Seed: 21})
	c.Run()
	c.Settle()
	out := c.Outcome()
	if out.Survived != 34 || out.Mounted != 60 {
		t.Fatalf("%d of %d flips survived, want 34 of 60: %+v", out.Survived, out.Mounted, out)
	}
	if out.Survived == 0 {
		t.Fatalf("no pair evaded the masked signature: %+v", out)
	}
	if out.Survived >= out.Mounted {
		t.Fatalf("every pair evaded — detection is broken: %+v", out)
	}
}

// TestSigstoreWeaponizesZeroingButNotECC: against zeroing-only recovery a
// signature-store campaign destroys healthy weights; with ECC the check
// words certify the weights intact and only the signatures are repaired.
func TestSigstoreWeaponizesZeroingButNotECC(t *testing.T) {
	run := func(correct bool) (Outcome, bool) {
		tgt, snap := tinyTarget(t, correct)
		atk, _ := New("sigstore")
		c := NewCampaign(tgt, atk, Options{Flips: 8, Windows: 4, Seed: 13})
		c.Run()
		c.Settle()
		return c.Outcome(), modelEquals(tgt.Model, snap)
	}
	zero, zeroIntact := run(false)
	if zero.WeightsZeroed == 0 || zeroIntact {
		t.Fatalf("zeroing defense should have destroyed healthy groups: %+v", zero)
	}
	ecc, eccIntact := run(true)
	if ecc.WeightsZeroed != 0 || !eccIntact {
		t.Fatalf("ECC defense must not touch weights under sigstore: %+v", ecc)
	}
	if ecc.GroupsCorrected != int64(ecc.SigDetected) {
		t.Fatalf("every detected sig flip should be a class-0 repair: %+v", ecc)
	}
}

// perLayer is a test attacker: one MSB flip in every layer, all mounted in
// window 0.
type perLayer struct{}

func (perLayer) Name() string { return "per-layer" }

func (perLayer) Plan(t Target, opt Options, _ *rand.Rand) []Volley {
	vs := make([]Volley, opt.Windows)
	for li := range t.Model.Layers {
		vs[0].Weights = append(vs[0].Weights, quant.BitAddress{LayerIndex: li, Bit: quant.MSB})
	}
	return vs
}

// TestCampaignSweepsOldestFirst: a campaign's defender is the rolling sweep
// on a window clock. With a ScrubEvery whose byte budget is about a quarter
// of the model, each window's tick flags the oldest layers only, every
// observer-free flip is found within ⌈model bytes ÷ budget⌉ + 1 windows,
// and wall time spent outside the campaign changes nothing.
func TestCampaignSweepsOldestFirst(t *testing.T) {
	tgt, _ := tinyTarget(t, false)
	layers, total, largest := len(tgt.Model.Layers), 0, 0
	for _, l := range tgt.Model.Layers {
		total += len(l.Q)
		largest = max(largest, len(l.Q))
	}
	every := time.Duration(float64(total) / 4 / core.SweepBytesPerSecond * float64(time.Second))
	budget := int(every.Seconds() * core.SweepBytesPerSecond)
	if budget <= largest || budget*3 >= total {
		t.Fatalf("budget %d does not split the model (%d bytes, largest layer %d) into several ticks", budget, total, largest)
	}
	windows := (total+budget-1)/budget + 1

	// pendingAfter runs an n-window campaign and returns the layers whose
	// flip is still undetected. A fetch first re-stamps the layers so that
	// the last one is the oldest: age order is the reverse of index order.
	pendingAfter := func(n int) map[int]bool {
		tgt, _ := tinyTarget(t, false)
		_, base := tgt.Prot.Verified()
		for li := range tgt.Model.Layers {
			tgt.Prot.FetchLayer(li, base.Add(time.Duration(layers-li)))
			tgt.Prot.ReleaseLayer(li)
		}
		c := NewCampaign(tgt, perLayer{}, Options{Flips: layers, Windows: n, ScrubEvery: every})
		c.Run()
		left := map[int]bool{}
		for a := range c.pendingW {
			left[a.LayerIndex] = true
		}
		return left
	}
	prev := pendingAfter(1)
	if len(prev) != layers {
		t.Fatalf("window 0's tick ran before the volley, yet only %d of %d flips are pending", len(prev), layers)
	}
	for w := 1; w < windows; w++ {
		left := pendingAfter(w + 1)
		covered, youngestFlagged, oldestLeft := 0, layers, -1
		for li := range prev {
			if !left[li] {
				covered += len(tgt.Model.Layers[li].Q)
				youngestFlagged = min(youngestFlagged, li)
			}
		}
		for li := range left {
			oldestLeft = max(oldestLeft, li)
		}
		if len(prev) > 0 && (covered == 0 || covered >= budget+largest) {
			t.Fatalf("window %d's tick flagged %d bytes of layers, want (0, budget %d + one layer)", w, covered, budget)
		}
		if oldestLeft > youngestFlagged {
			t.Fatalf("window %d's tick flagged layer %d but left the older layer %d", w, youngestFlagged, oldestLeft)
		}
		prev = left
	}
	if len(prev) != 0 {
		t.Fatalf("flips in layers %v still live after %d windows", prev, windows)
	}

	run := func(pause time.Duration) (Outcome, int64) {
		tgt, _ := tinyTarget(t, false)
		time.Sleep(pause)
		atk, _ := New("oblivious")
		c := NewCampaign(tgt, atk, Options{Flips: 24, Windows: windows, ScrubEvery: every, Seed: 7})
		c.Run()
		c.Settle()
		return c.Outcome(), tgt.Prot.Stats().Scans
	}
	out, scans := run(0)
	slept, sleptScans := run(20 * time.Millisecond)
	if !reflect.DeepEqual(out, slept) || scans != sleptScans {
		t.Fatalf("a 20ms pause before Run changed the campaign: %+v and %d scans vs %+v and %d", out, scans, slept, sleptScans)
	}
}

func TestPlanVolleyOneShot(t *testing.T) {
	tgt, _ := tinyTarget(t, false)
	v, err := PlanVolley(tgt, "oblivious", 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Size() != 7 {
		t.Fatalf("one-shot volley size %d, want 7", v.Size())
	}
	if _, err := PlanVolley(tgt, "bogus", 1, 1); err == nil {
		t.Fatal("unknown adversary must error")
	}
}

// TestPlanVolleyBoundedByModel: a budget far above the model's size plans
// at most one flip per checksum group (a pair per group for
// below-threshold, one per weight for oblivious) and returns promptly,
// whatever the request asks for.
func TestPlanVolleyBoundedByModel(t *testing.T) {
	tgt, _ := tinyTarget(t, false)
	groups, weights := tgt.Prot.NumGroups(), 0
	for _, l := range tgt.Model.Layers {
		weights += len(l.Q)
	}
	for _, flips := range []int{math.MaxInt32, math.MaxInt64} {
		for _, n := range Names() {
			v, err := PlanVolley(tgt, n, flips, 1)
			if err != nil {
				t.Fatal(err)
			}
			perGroup := map[core.GroupID]int{}
			for _, a := range v.Weights {
				perGroup[tgt.Prot.GroupOf(a)]++
			}
			for _, f := range v.Signatures {
				perGroup[core.GroupID{Layer: f.Layer, Group: f.Group}]++
			}
			most := 0
			for _, c := range perGroup {
				most = max(most, c)
			}
			switch n {
			case "oblivious":
				if v.Size() == 0 || v.Size() > weights {
					t.Errorf("%s, budget %d: planned %d flips over %d weights", n, flips, v.Size(), weights)
				}
			case "below-threshold":
				if v.Size() == 0 || most > 2 {
					t.Errorf("%s, budget %d: planned %d flips, up to %d in one group", n, flips, v.Size(), most)
				}
			default:
				if v.Size() == 0 || most > 1 || v.Size() > groups {
					t.Errorf("%s, budget %d: planned %d flips over %d groups, up to %d in one", n, flips, v.Size(), groups, most)
				}
			}
		}
	}
}

// TestMountIsAPhysicalFlip: Mount lands every weight flip in storage the
// way rowhammer does — no write observer fires, so incremental ScanDirty
// sees nothing — and a full Scan flags every mounted group.
func TestMountIsAPhysicalFlip(t *testing.T) {
	tgt, snap := tinyTarget(t, false)
	observed := 0
	defer tgt.Model.Observe(func(int) { observed++ })()
	v := Volley{Weights: []quant.BitAddress{
		{LayerIndex: 0, WeightIndex: 1, Bit: quant.MSB},
		{LayerIndex: 2, WeightIndex: 10, Bit: quant.MSB},
		{LayerIndex: 3, WeightIndex: 5, Bit: quant.MSB},
	}}
	Mount(tgt, v)
	want := map[core.GroupID]bool{}
	for _, a := range v.Weights {
		if got := tgt.Model.Layers[a.LayerIndex].Q[a.WeightIndex]; got != quant.FlipBit(snap[a.LayerIndex][a.WeightIndex], a.Bit) {
			t.Fatalf("bit %v not flipped in storage", a)
		}
		want[tgt.Prot.GroupOf(a)] = true
	}
	if observed != 0 {
		t.Fatalf("Mount notified write observers %d times; a physical flip announces nothing", observed)
	}
	if dirty := tgt.Prot.ScanDirty(); len(dirty) != 0 {
		t.Fatalf("ScanDirty saw observer-bypassing flips: %v", dirty)
	}
	flagged := tgt.Prot.Scan()
	if len(flagged) != len(want) {
		t.Fatalf("Scan flagged %v, want the %d mounted groups", flagged, len(want))
	}
	for _, g := range flagged {
		if !want[g] {
			t.Fatalf("Scan flagged unmounted group %v", g)
		}
	}
}

// TestEndToEndRowhammerPBFARADAR is the §III integration test: PBFA derives
// a profile offline; Mount lands it as rowhammer flips on the victim at
// "run time"; RADAR's scan detects the corrupted groups and recovery
// restores accuracy.
func TestEndToEndRowhammerPBFARADAR(t *testing.T) {
	// Offline phase: attacker computes the vulnerable-bit profile on its
	// own copy of the model.
	atkCopy := model.Load(model.TinySpec())
	cfg := attack.DefaultConfig(99)
	cfg.NumFlips = 8
	profile := attack.PBFA(atkCopy.QModel, atkCopy.Attack, cfg)

	// Victim system: protected model in DRAM.
	victim := model.Load(model.TinySpec())
	clean := model.Evaluate(victim.Net, victim.Test, 100)
	prot := core.Protect(victim.QModel, core.DefaultConfig(16))

	// Run-time phase: mount the profile as rowhammer flips.
	Mount(Target{Model: victim.QModel}, Volley{Weights: profile.Addresses()})
	attacked := model.Evaluate(victim.Net, victim.Test, 100)

	// Detection + recovery.
	// The tiny model's PBFA profile mixes in bit-6 flips and repeated flips
	// of one weight, which a 2-bit signature legitimately misses part of
	// the time; the paper-level detection statistics (≈9.5/10) are
	// verified by the Figure 4 experiment on the scaled models. Here we
	// require that the scan catches a solid share and never false-alarms.
	flagged, _ := prot.DetectAndRecover()
	detected := prot.CountDetected(profile.Addresses(), flagged)
	if detected*2 < len(profile) {
		t.Fatalf("detected only %d of %d rowhammer flips", detected, len(profile))
	}
	if len(flagged) == 0 {
		t.Fatal("no groups flagged")
	}
	// On the tiny 4-class model a zeroed group is a large fraction of the
	// classifier, so zero-out recovery trades corruption for erasure and
	// the net accuracy gain can be ~0; the paper-scale recovery gains are
	// demonstrated on the scaled ResNets by the Table III experiment
	// (internal/exp). Here we assert recovery never makes things worse and
	// that the model still functions.
	recovered := model.Evaluate(victim.Net, victim.Test, 100)
	if recovered < attacked-0.05 {
		t.Fatalf("recovery hurt accuracy: clean %.3f attacked %.3f recovered %.3f",
			clean, attacked, recovered)
	}
}
