package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"radar/internal/quant"
)

// entryRoute is one public way of running a scan pass followed by a repair
// pass over the whole model. run checks what the route flagged against want
// and returns the weights it reports zeroed.
type entryRoute struct {
	name string
	// fetch marks the FetchLayer route: a clean layer verifies inline, so
	// OnLayerScanned fires only for the layers it escalates.
	fetch bool
	run   func(t *testing.T, p *Protector, want []GroupID) (zeroed int)
}

func mustFlag(t *testing.T, got, want []GroupID) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flagged %v, reference flags %v", got, want)
	}
}

var entryRoutes = []entryRoute{
	{name: "Recover(Scan())", run: func(t *testing.T, p *Protector, want []GroupID) int {
		flagged := p.Scan()
		mustFlag(t, flagged, want)
		return p.Recover(flagged)
	}},
	{name: "ScanLayer+Recover", run: func(t *testing.T, p *Protector, want []GroupID) int {
		var flagged []GroupID
		for li := range p.Model.Layers {
			flagged = append(flagged, p.ScanLayer(li)...)
		}
		mustFlag(t, flagged, want)
		return p.Recover(flagged)
	}},
	{name: "ScanDirty+Recover", run: func(t *testing.T, p *Protector, want []GroupID) int {
		for li := range p.Model.Layers {
			p.MarkLayerDirty(li)
		}
		flagged := p.ScanDirty()
		mustFlag(t, flagged, want)
		return p.Recover(flagged)
	}},
	{name: "DetectAndRecover", run: func(t *testing.T, p *Protector, want []GroupID) int {
		flagged, zeroed := p.DetectAndRecover()
		mustFlag(t, flagged, want)
		return zeroed
	}},
	{name: "VerifyAndRecoverLayer", run: func(t *testing.T, p *Protector, want []GroupID) (zeroed int) {
		var flagged []GroupID
		for li := range p.Model.Layers {
			f, z := p.VerifyAndRecoverLayer(li)
			flagged = append(flagged, f...)
			zeroed += z
		}
		mustFlag(t, flagged, want)
		return zeroed
	}},
	{name: "DetectAndRecoverExclusive", run: func(t *testing.T, p *Protector, want []GroupID) int {
		p.Guard().LockAll()
		defer p.Guard().UnlockAll()
		flagged, zeroed := p.DetectAndRecoverExclusive()
		mustFlag(t, flagged, want)
		return zeroed
	}},
	{name: "FetchLayer", fetch: true, run: func(t *testing.T, p *Protector, want []GroupID) (zeroed int) {
		for li := range p.Model.Layers {
			wantN := 0
			for _, g := range want {
				if g.Layer == li {
					wantN++
				}
			}
			n, z, exclusive := p.FetchLayer(li, time.Now())
			if n != wantN || exclusive != (wantN > 0) {
				t.Fatalf("layer %d: flagged %d groups (exclusive=%v), reference flags %d", li, n, exclusive, wantN)
			}
			if exclusive {
				p.Guard().UnlockLayer(li)
			} else {
				p.Guard().RUnlockLayer(li)
			}
			zeroed += z
		}
		return zeroed
	}},
}

// plantCorruption damages a freshly protected model the same way on every
// copy: single MSB flips (ECC-correctable) in layers 0 and 2, a two-bit
// error in one group of layer 2 (uncorrectable: zeroed either way), and a
// flipped golden signature in layer 3 (with Correct the weights verify and
// only the signature is restored, so that layer is flagged but never
// written). Layer 1 stays clean. All writes bypass the model API.
func plantCorruption(t *testing.T, p *Protector) {
	t.Helper()
	m := p.Model
	flip := func(li, i, bit int) { m.Layers[li].Q[i] = quant.FlipBit(m.Layers[li].Q[i], bit) }
	for _, i := range []int{3, 400, 899} {
		flip(0, i, quant.MSB)
	}
	flip(2, 11, quant.MSB)
	// Two flips in one group, the second searched so that the pair still
	// changes the signature (a ±128 pair of opposite sign would cancel).
	s, q := p.Schemes[2], m.Layers[2].Q
	g := s.GroupOf(500, len(q))
	var members []int
	s.VisitMembers(g, len(q), func(_, i int) { members = append(members, i) })
	flip(2, members[0], quant.MSB)
	planted := false
	for bit := quant.MSB; bit >= 0 && !planted; bit-- {
		flip(2, members[1], bit)
		if planted = s.SignaturesRangeRef(q, g, g+1)[0] != p.Golden[2][g]; !planted {
			flip(2, members[1], bit)
		}
	}
	if !planted {
		t.Fatal("no detectable two-bit error found in the chosen group")
	}
	p.Golden[3][5] ^= 1
}

// referenceFlagged recomputes the flagged set with the scalar reference.
func referenceFlagged(p *Protector) (want []GroupID) {
	for li, l := range p.Model.Layers {
		n := p.Schemes[li].NumGroups(len(l.Q))
		for j, sig := range p.Schemes[li].SignaturesRangeRef(l.Q, 0, n) {
			if sig != p.Golden[li][j] {
				want = append(want, GroupID{Layer: li, Group: j})
			}
		}
	}
	return want
}

// TestEntryPointsAgree drives identical corrupted copies of one model
// through every public scan-and-repair route and holds them to one
// behaviour: each flags exactly what SignaturesRangeRef flags, leaves
// byte-identical weights, goldens and check words, moves the Stats recovery
// counters by the same amounts, reports MarkWritten once per layer it wrote
// and never for one it did not, fires OnLayerScanned once per layer it
// scanned, and leaves a model the next Scan finds clean — on every checksum
// leg, each route's last subtest level, all held to the first's result.
func TestEntryPointsAgree(t *testing.T) {
	sizes := []int{900, 1300, 700, 2100}
	for _, correct := range []bool{false, true} {
		for _, guarded := range []bool{false, true} {
			for _, workers := range []int{1, 2, 4} {
				var first *Protector
				var firstStats Stats
				for _, route := range entryRoutes {
					name := fmt.Sprintf("correct=%v/guarded=%v/workers=%d/%s", correct, guarded, workers, route.name)
					t.Run(name, func(t *testing.T) {
						eachKernel(t, func(t *testing.T) {
							var scanned, written hookRecorder
							m := syntheticModel(rand.New(rand.NewSource(42)), sizes)
							cfg := DefaultConfig(16)
							cfg.Workers = workers
							cfg.ShardGroups = 9 // several shards per layer
							cfg.Correct = correct
							cfg.OnLayerScanned = scanned.hook
							p := Protect(m, cfg)
							if guarded {
								p.Coordinate(NewLayerGuard(len(m.Layers)))
							}
							plantCorruption(t, p)
							want := referenceFlagged(p)
							before := m.Snapshot()
							// Observe from here on: Protect's own pass and the
							// planting are not part of the route.
							scanned.take()
							defer m.Observe(written.hook)()

							zeroed := route.run(t, p, want)

							st := p.Stats()
							if st.GroupsFlagged != int64(len(want)) || st.GroupsRecovered != int64(len(want)) ||
								st.GroupsCorrected+st.GroupsZeroed != st.GroupsRecovered || st.WeightsZeroed != int64(zeroed) {
								t.Fatalf("stats %+v after flagging %d groups and zeroing %d weights", st, len(want), zeroed)
							}
							if correct != (st.GroupsCorrected > 0) || st.GroupsZeroed == 0 {
								t.Fatalf("corruption did not exercise both repairs: %+v", st)
							}
							var wantWritten, wantScanned []int
							for li, l := range m.Layers {
								if !slices.Equal(l.Q, before[li]) {
									wantWritten = append(wantWritten, li)
								}
								if !route.fetch || slices.ContainsFunc(want, func(g GroupID) bool { return g.Layer == li }) {
									wantScanned = append(wantScanned, li)
								}
							}
							if got := written.take(); !reflect.DeepEqual(got, wantWritten) {
								t.Fatalf("MarkWritten for layers %v, weights changed in %v", got, wantWritten)
							}
							if got := scanned.take(); !reflect.DeepEqual(got, wantScanned) {
								t.Fatalf("OnLayerScanned for layers %v, want %v", got, wantScanned)
							}
							if first == nil {
								first, firstStats = p, st
							} else {
								if !reflect.DeepEqual(m.Snapshot(), first.Model.Snapshot()) {
									t.Fatalf("weights differ from those %s left", entryRoutes[0].name)
								}
								if !reflect.DeepEqual(p.Golden, first.Golden) || !reflect.DeepEqual(p.Check, first.Check) {
									t.Fatalf("goldens or check words differ from those %s left", entryRoutes[0].name)
								}
								st.Scans, st.BytesScanned = firstStats.Scans, firstStats.BytesScanned // per-route by design
								if st != firstStats {
									t.Fatalf("stats %+v, %s left %+v", st, entryRoutes[0].name, firstStats)
								}
							}
							if again := p.Scan(); len(again) != 0 {
								t.Fatalf("follow-up Scan flags %v", again)
							}
						})
					})
				}
			}
		}
	}
}

// TestRepairPanicReleasesLocks: a panic on the repair path (here the
// zeroing fallback indexing a truncated Check slice) must not leave the
// layer's write lock held, or every later fetch of that layer hangs.
func TestRepairPanicReleasesLocks(t *testing.T) {
	routes := map[string]func(p *Protector){
		"Recover":          func(p *Protector) { p.Recover(p.Scan()) },
		"DetectAndRecover": func(p *Protector) { p.DetectAndRecover() },
	}
	for name, run := range routes {
		m := guardTestModel()
		p := Protect(m, Config{G: 16, Interleave: true, SigBits: 2, Seed: 5, Correct: true})
		g := NewLayerGuard(len(m.Layers))
		p.Coordinate(g)
		p.Check[1] = p.Check[1][:0]
		m.Layers[1].Q[17] = quant.FlipBit(m.Layers[1].Q[17], quant.MSB)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: repair with a truncated Check slice did not panic", name)
				}
			}()
			run(p)
		}()
		free := make(chan struct{})
		go func() {
			g.LockAll()
			g.UnlockAll()
			close(free)
		}()
		select {
		case <-free:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: a layer lock is still held after the repair panicked", name)
		}
	}
}
