package serve

import (
	"slices"
	"testing"
	"time"

	"radar/internal/core"
	"radar/internal/model"
	"radar/internal/quant"
)

// TestRollingScrub holds the scrubber's tick to its contract: it repairs
// what nothing announced, skips what a fetch just verified, and so keeps an
// idle model's exposure window near one interval. How the byte budget
// carries layers to the next tick by age is core's TestSweepTick, where the
// sweep lives. Each case gets an unstarted server (no ticker, no workers)
// and drives ticks by hand unless it starts the server itself.
func TestRollingScrub(t *testing.T) {
	for _, tc := range []struct {
		name     string
		interval time.Duration
		run      func(t *testing.T, b *model.Bundle, srv *Server)
	}{
		{
			name:     "idle model: one tick repairs a flip in every layer",
			interval: 4 * time.Millisecond,
			run: func(t *testing.T, b *model.Bundle, srv *Server) {
				time.Sleep(3 * time.Millisecond) // past the half-interval horizon
				snapshot := b.QModel.Snapshot()
				srv.Inject(func(m *quant.Model) {
					for _, l := range m.Layers {
						l.Q[0] = quant.FlipBit(l.Q[0], quant.MSB) // direct write, no notify
					}
				})
				flagged, zeroed := srv.Scrub(false)
				if n := len(b.QModel.Layers); len(flagged) != n || zeroed != 0 {
					t.Fatalf("tick flagged %d groups and zeroed %d weights, want %d corrected in place", len(flagged), zeroed, n)
				}
				for li, l := range b.QModel.Layers {
					if !slices.Equal(l.Q, snapshot[li]) {
						t.Fatalf("layer %d differs from its pre-attack image after the tick", li)
					}
				}
				if s, f, d := srv.met.scrubScanned.Value(), srv.met.scrubFresh.Value(), srv.met.scrubDeferred.Value(); s != int64(len(flagged)) || f != 0 || d != 0 {
					t.Fatalf("layers scanned/fresh/deferred = %d/%d/%d, want %d/0/0", s, f, d, len(flagged))
				}
			},
		},
		{
			name:     "hot model: a tick after a verified pass scans nothing",
			interval: time.Minute,
			run: func(t *testing.T, b *model.Bundle, srv *Server) {
				x, _ := b.Test.Batch(0, 1)
				v := &verifier{s: srv, at: time.Now()}
				_, spent := srv.eng.ForwardFetch(x, v)
				v.flush(spent)
				before := srv.prot.Stats().BytesScanned
				srv.Scrub(false)
				if after := srv.prot.Stats().BytesScanned; after != before {
					t.Fatalf("tick scanned %d bytes of a model verified just now", after-before)
				}
				if cycles := srv.met.scrubCycles.Value(); cycles != 1 || srv.met.scrubFresh.Value() != int64(len(b.QModel.Layers)) {
					t.Fatalf("%d cycles counted, %d layers fresh; want 1 and %d", cycles, srv.met.scrubFresh.Value(), len(b.QModel.Layers))
				}
			},
		},
		{
			name:     "live ticker: an idle model's window stays near one interval",
			interval: 2 * time.Millisecond,
			run: func(t *testing.T, b *model.Bundle, srv *Server) {
				srv.Start()
				var windows []time.Duration
				for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
					windows = append(windows, srv.exposureWindow())
				}
				// Two intervals is the closed form: hold the median to it
				// with one interval to spare. The rest is scheduler slack
				// (the alternating scrubber this replaced sat at up to
				// eight intervals), held on the upper quartile; the worst
				// of ~40 samples is one late wake-up of a 2 ms ticker on a
				// shared host, so it is logged, not asserted. A scrubber
				// that stops ticking fails both: the window then grows to
				// the length of the loop.
				slices.Sort(windows)
				iv := srv.cfg.scrubInterval
				median, q3, worst := windows[len(windows)/2], windows[len(windows)*3/4], windows[len(windows)-1]
				t.Logf("exposure window over %d samples: median %v, upper quartile %v, worst %v", len(windows), median, q3, worst)
				if median > 3*iv {
					t.Fatalf("median exposure window %v, want at most %v", median, 3*iv)
				}
				if q3 > 6*iv {
					t.Fatalf("upper-quartile exposure window %v, want at most %v", q3, 6*iv)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pcfg := core.DefaultConfig(4)
			pcfg.Correct = true // ECC repair: the image comes back bit-identical
			b, srv := buildTinyServer(t, pcfg, WithScrub(tc.interval))
			tc.run(t, b, srv)
		})
	}
}
