package serve

import (
	"io"
	"sync"
	"testing"
	"time"

	"radar/internal/adversary"
	"radar/internal/attack"
	"radar/internal/model"
	"radar/internal/quant"
)

// TestServeRaceUnderLiveFlips is the -race contract of the subsystem: it
// serves inference from several clients while (a) a rowhammer adversary
// flips bits in the live weight image, (b) the background scrubber scans
// and recovers, (c) a foreground goroutine hammers DetectAndRecover — the
// exact read/write collision that was latent before recovery took the
// layer locks — and (d) the /v1/metrics registry is scraped.
// Run under
// `go test -race ./internal/serve/`; any unguarded access fails the build.
func TestServeRaceUnderLiveFlips(t *testing.T) {
	svc, bundles, _ := openTiny(t, 1, []ModelOption{WithScrub(time.Millisecond)})
	b, srv := bundles[0], modelSrv(t, svc, "m0")

	// A precomputed MSB profile to mount repeatedly as observer-bypassing
	// flips; computed on a separate attacker copy so profiling itself does
	// not touch the victim.
	atk := model.Load(model.TinySpec())
	volley := adversary.Volley{Weights: attack.RandomMSB(atk.QModel, 8, 11).Addresses()}

	x, _ := b.Test.Batch(0, 8)
	const (
		clients   = 4
		perClient = 25
		atkRounds = 20
		drRounds  = 10
	)
	var wg sync.WaitGroup

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, err := infer(srv, sample(x, (c+i)%8)); err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
			}
		}(c)
	}

	wg.Add(1)
	go func() { // live rowhammer adversary
		defer wg.Done()
		for i := 0; i < atkRounds; i++ {
			srv.Inject(func(m *quant.Model) {
				adversary.Mount(adversary.Target{Model: m}, volley)
			})
			time.Sleep(100 * time.Microsecond)
		}
	}()

	wg.Add(1)
	go func() { // foreground detect-and-recover alongside the scrubber
		defer wg.Done()
		for i := 0; i < drRounds; i++ {
			srv.prot.DetectAndRecover()
			time.Sleep(200 * time.Microsecond)
		}
	}()

	wg.Add(1)
	go func() { // /v1/metrics scraper
		defer wg.Done()
		for i := 0; i < 50; i++ {
			svc.WriteMetrics(io.Discard)
			time.Sleep(50 * time.Microsecond)
		}
	}()

	wg.Wait()
	if n := srv.met.requests.Value(); n != clients*perClient {
		t.Fatalf("served %d requests, want %d", n, clients*perClient)
	}
	if n := srv.met.injections.Value(); n != atkRounds {
		t.Fatalf("recorded %d injections, want %d", n, atkRounds)
	}
	srv.Stop()
	// After traffic stops, one final full sweep must leave the model clean.
	if flagged, _ := srv.prot.DetectAndRecover(); len(flagged) != 0 {
		// The last injection may have landed after the last scrub; a second
		// sweep on a quiesced model must be clean.
		if flagged2, _ := srv.prot.DetectAndRecover(); len(flagged2) != 0 {
			t.Fatalf("model still corrupt after quiesced sweep: %v", flagged2)
		}
	}
}
