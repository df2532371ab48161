package core

import (
	"testing"
	"time"

	"radar/internal/model"
	"radar/internal/quant"
)

// stamps reads every layer's last-verified stamp.
func stamps(p *Protector) []int64 {
	out := make([]int64, len(p.verified))
	for li := range out {
		out[li] = p.verified[li].Load()
	}
	return out
}

// TestSweepTick holds one tick of the rolling sweep to its contract on an
// explicit clock: with a budget below the model it visits the oldest layers
// first and carries the rest to the next tick, so nothing starves; a tick
// repairs what nothing announced; and stamps only move forward.
func TestSweepTick(t *testing.T) {
	m := model.Load(model.TinySpec()).QModel
	cfg := DefaultConfig(4)
	cfg.Correct = true
	p := Protect(m, cfg)
	defer p.Detach()

	t.Run("budget below the model: oldest first, nothing starves", func(t *testing.T) {
		total, largest := 0, 0
		for _, l := range m.Layers {
			total += len(l.Q)
			largest = max(largest, len(l.Q))
		}
		// An interval whose budget is a quarter of the model.
		iv := time.Duration(float64(total) / 4 / SweepBytesPerSecond * float64(time.Second))
		budget := int(iv.Seconds() * SweepBytesPerSecond)
		if budget <= largest || budget*3 >= total {
			t.Fatalf("budget %d does not split the model (%d bytes, largest layer %d) into several ticks", budget, total, largest)
		}
		first := stamps(p)
		_, now := p.Verified()
		ticks, deferred := (total+budget-1)/budget+1, 0
		for tick := 0; tick < ticks; tick++ {
			now = now.Add(iv) // the previous tick's layers go stale too, but stay youngest
			before := stamps(p)
			deferred += p.SweepTick(now, iv).Deferred
			after := stamps(p)
			covered, newestVisited, oldestLeft := 0, int64(0), int64(1<<62)
			for li := range after {
				if after[li] != before[li] {
					covered += len(m.Layers[li].Q)
					newestVisited = max(newestVisited, before[li])
				} else {
					oldestLeft = min(oldestLeft, before[li])
				}
			}
			if covered == 0 || covered >= budget+largest {
				t.Fatalf("tick %d covered %d bytes, want (0, budget %d + one layer)", tick, covered, budget)
			}
			if newestVisited > oldestLeft {
				t.Fatalf("tick %d visited a layer %v younger than one it left", tick, time.Duration(newestVisited-oldestLeft))
			}
		}
		for li, at := range stamps(p) {
			if at == first[li] {
				t.Fatalf("layer %d still unvisited after %d ticks", li, ticks)
			}
		}
		if deferred == 0 {
			t.Fatal("the budget bound, yet no layer was counted deferred")
		}
	})

	t.Run("a full sweep repairs a physical flip in every layer", func(t *testing.T) {
		snapshot := m.Snapshot()
		for _, l := range m.Layers {
			l.Q[0] = quant.FlipBit(l.Q[0], quant.MSB) // direct write, no notify
		}
		_, now := p.Verified()
		sw := p.SweepTick(now, 0)
		if sw.Scanned != len(m.Layers) || len(sw.Flagged) != len(m.Layers) || sw.Zeroed != 0 {
			t.Fatalf("full sweep scanned %d layers, flagged %d groups, zeroed %d weights; want %d, %d corrected in place, 0",
				sw.Scanned, len(sw.Flagged), sw.Zeroed, len(m.Layers), len(m.Layers))
		}
		for li, l := range m.Layers {
			for i, v := range l.Q {
				if v != snapshot[li][i] {
					t.Fatalf("layer %d weight %d differs from its pre-attack image after the sweep", li, i)
				}
			}
		}
	})

	t.Run("stamps only move forward", func(t *testing.T) {
		// A sweep (or a slower worker's pass) that began before a layer's
		// latest check does not age the layer again.
		_, now := p.Verified()
		newest := stamps(p)
		p.FetchLayer(0, now.Add(-time.Millisecond))
		p.ReleaseLayer(0)
		p.SweepTick(now.Add(-time.Second), 0)
		for li, got := range stamps(p) {
			if got != newest[li] {
				t.Fatalf("an older pass moved layer %d's stamp back by %v", li, time.Duration(newest[li]-got))
			}
		}
	})
}
