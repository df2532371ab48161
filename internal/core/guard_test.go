package core

import (
	"sync"
	"testing"

	"radar/internal/model"
	"radar/internal/quant"
)

func guardTestModel() *quant.Model {
	tab := &model.ShapeTable{Layers: []model.LayerShape{
		{Name: "l0", Weights: 400},
		{Name: "l1", Weights: 640},
		{Name: "l2", Weights: 250},
	}}
	return model.SyntheticQuant(tab)
}

func TestVerifyAndRecoverLayer(t *testing.T) {
	m := guardTestModel()
	p := Protect(m, Config{G: 16, Interleave: true, SigBits: 2, Seed: 5})

	// Clean layer: nothing flagged, nothing zeroed.
	if flagged, zeroed := p.VerifyAndRecoverLayer(1); len(flagged) != 0 || zeroed != 0 {
		t.Fatalf("clean layer flagged %v zeroed %d", flagged, zeroed)
	}

	// Corrupt layer 1 directly (bypassing the API, like hardware would).
	m.Layers[1].Q[17] = quant.FlipBit(m.Layers[1].Q[17], quant.MSB)
	flagged, zeroed := p.VerifyAndRecoverLayer(1)
	if len(flagged) != 1 || flagged[0].Layer != 1 {
		t.Fatalf("flagged %v, want one group in layer 1", flagged)
	}
	if zeroed == 0 {
		t.Fatal("nothing zeroed")
	}
	// The verify is also the recovery: an immediate rescan is clean.
	if again, _ := p.VerifyAndRecoverLayer(1); len(again) != 0 {
		t.Fatalf("recovery did not stick: %v", again)
	}
	// Result must equal what a full scan would now report: nothing.
	if s := p.Scan(); len(s) != 0 {
		t.Fatalf("full scan still flags %v", s)
	}
}

func TestProtectorStats(t *testing.T) {
	m := guardTestModel()
	p := Protect(m, Config{G: 16, Interleave: true, SigBits: 2, Seed: 5})
	if st := p.Stats(); st != (Stats{}) {
		t.Fatalf("fresh protector has nonzero stats: %+v", st)
	}
	p.Scan()
	m.Layers[0].Q[3] = quant.FlipBit(m.Layers[0].Q[3], quant.MSB)
	flagged := p.Scan()
	zeroed := p.Recover(flagged)
	st := p.Stats()
	if st.Scans != 2 {
		t.Fatalf("Scans = %d, want 2", st.Scans)
	}
	if st.GroupsFlagged != int64(len(flagged)) || len(flagged) == 0 {
		t.Fatalf("GroupsFlagged = %d, flagged %d", st.GroupsFlagged, len(flagged))
	}
	if st.GroupsRecovered != int64(len(flagged)) || st.WeightsZeroed != int64(zeroed) {
		t.Fatalf("recovery stats %+v, want %d groups / %d weights", st, len(flagged), zeroed)
	}
}

// TestGuardedRecoverConcurrentWithScans: Recover and Rekey may run while
// other goroutines scan — the layer locks that make the serving subsystem
// race-free. (Run under -race via `make race`.)
func TestGuardedRecoverConcurrentWithScans(t *testing.T) {
	m := guardTestModel()
	p := Protect(m, Config{G: 16, Interleave: true, SigBits: 2, Seed: 5, Workers: 2})

	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p.Scan()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			// Writers take the write locks, like Server.Inject does.
			a := quant.BitAddress{LayerIndex: i % 3, WeightIndex: i * 7 % 250, Bit: quant.MSB}
			p.Exclusive(func() { m.FlipBit(a) })
			p.DetectAndRecover()
			p.Rekey(int64(i))
		}
	}()
	wg.Wait()
	if flagged, _ := p.DetectAndRecover(); len(flagged) != 0 {
		t.Fatalf("still corrupt after quiesce: %v", flagged)
	}
}
