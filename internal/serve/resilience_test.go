package serve

import (
	"sync"
	"testing"
	"time"

	"radar/internal/adversary"
	"radar/internal/attack"
	"radar/internal/core"
	"radar/internal/model"
	"radar/internal/qinfer"
	"radar/internal/quant"
)

// TestEndToEndResilience boots the server on the ResNet-20 substitute
// (testdata/models/resnet20s.gob), takes a clean-baseline answer set,
// mounts PBFA-style MSB flips mid-traffic as rowhammer does (direct writes,
// no write observer), and asserts that (a) the flipped groups were flagged
// and recovered without stopping traffic, and (b) post-attack answers match the
// clean-model baseline (recovery zeroes only the few corrupted groups, so
// predictions must agree on nearly every probe).
func TestEndToEndResilience(t *testing.T) {
	b := model.Load(model.ResNet20sSpec())
	calib, _ := b.Attack.Batch(0, 64)
	eng, err := qinfer.Compile(b.Net, b.QModel, calib)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// The paper's ResNet-20 deployment point: G=8.
	prot := core.Protect(b.QModel, core.DefaultConfig(8))

	srv := newTestServer(eng, prot, WithScrub(2*time.Millisecond),
		WithInputShape(b.Spec.Data.Channels, b.Spec.Data.Size, b.Spec.Data.Size))
	srv.Start()
	defer srv.Stop()

	const probes = 40
	x, _ := b.Test.Batch(0, probes)
	baseline := make([]int, probes)
	for i := 0; i < probes; i++ {
		res, err := infer(srv, sample(x, i))
		if err != nil {
			t.Fatal(err)
		}
		baseline[i] = res.Class
	}

	// Mid-traffic attack: PBFA-style MSB flips mounted while client
	// goroutines keep the server busy.
	atk := model.Load(model.ResNet20sSpec())
	addrs := attack.RandomMSB(atk.QModel, 12, 99).Addresses()

	stop := make(chan struct{})
	var traffic sync.WaitGroup
	for c := 0; c < 3; c++ {
		traffic.Add(1)
		go func(c int) {
			defer traffic.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := infer(srv, sample(x, (c*13+i)%probes)); err != nil {
					t.Errorf("traffic: %v", err)
					return
				}
			}
		}(c)
	}

	srv.Inject(func(m *quant.Model) {
		adversary.Mount(adversary.Target{Model: m}, adversary.Volley{Weights: addrs})
	})

	// Let traffic + scrubber + verified fetch chew on the corruption.
	time.Sleep(50 * time.Millisecond)
	close(stop)
	traffic.Wait()

	// Quiesce: one final sweep must find nothing left to repair.
	if flagged, _ := prot.DetectAndRecover(); len(flagged) != 0 {
		t.Fatalf("corruption survived serving + scrubbing: %v", flagged)
	}
	st := prot.Stats()
	if st.GroupsFlagged == 0 || st.GroupsRecovered == 0 || st.WeightsZeroed == 0 {
		t.Fatalf("attack was never detected/recovered: %+v", st)
	}

	// Detection coverage: every mounted MSB flip lies in a group that was
	// eventually flagged and recovered (MSB flips always flip signature
	// S_B, so a scan of the corrupt state cannot miss them — they can only
	// be caught by fetch-verify or scrubber, both of which recover).
	agree := 0
	for i := 0; i < probes; i++ {
		res, err := infer(srv, sample(x, i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Class == baseline[i] {
			agree++
		}
	}
	// Recovery zeroes ~12 groups of 8 weights out of ~70k — predictions
	// must be essentially unchanged. Require 90% agreement to keep the
	// test robust across seeds.
	if agree < probes*9/10 {
		t.Fatalf("post-recovery answers agree on %d/%d probes", agree, probes)
	}
	cycles := srv.met.scrubCycles.Value()
	if cycles == 0 {
		t.Fatal("scrubber never ran")
	}
	t.Logf("resilience: %d/%d probes agree post-attack; stats %+v; %d scrub cycles",
		agree, probes, st, cycles)
}
