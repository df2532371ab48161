package adversary

import (
	"math/rand"
	"time"

	"radar/internal/core"
	"radar/internal/quant"
)

// Options configures one campaign.
type Options struct {
	// Flips is the campaign's total bit-flip budget (for below-threshold,
	// Flips/2 pairs).
	Flips int
	// Windows is the number of scrub windows the campaign spans. Each
	// window opens with a tick of the defender's sweep, then the attacker
	// mounts that window's volley.
	Windows int
	// ScrubEvery is the length of one window: the interval of each
	// window's sweep tick (core.Protector.SweepTick), and what the rate
	// model's per-window flip cap is priced over. 0 makes every tick a
	// full sweep and the flips unpriced.
	ScrubEvery time.Duration
	// Rate prices flips through rowhammer physics; nil = free writes.
	Rate *RateModel
	// NoDefense disables the defender entirely (no scrubs, no settle) —
	// the undefended baseline of the accuracy-after-attack comparison.
	NoDefense bool
	// Seed drives the attacker's plan.
	Seed int64
}

// CapPerWindow returns the rate model's per-window flip cap (0 =
// unlimited).
func (o Options) CapPerWindow() int {
	if o.Rate == nil {
		return 0
	}
	return o.Rate.FlipsPerWindow(o.ScrubEvery)
}

// Outcome reports what a campaign achieved and what it cost.
type Outcome struct {
	// Adversary is the attacker name.
	Adversary string `json:"adversary"`
	// Budget is the requested flip count; Mounted/SigMounted are the
	// weight-bit and signature-bit flips actually mounted (the rate cap
	// and group-exhaustion can leave budget unspent).
	Budget     int `json:"budget"`
	Mounted    int `json:"mounted"`
	SigMounted int `json:"sig_mounted,omitempty"`
	// Detected counts mounted weight flips whose group was flagged by any
	// defender scan (including Settle); SigDetected likewise for
	// signature flips. Survived is the evasion count: flips whose group
	// was never flagged.
	Detected    int `json:"detected"`
	SigDetected int `json:"sig_detected,omitempty"`
	Survived    int `json:"survived"`
	// MeanDwellWindows is the mean number of windows a detected flip was
	// live before its group was flagged.
	MeanDwellWindows float64 `json:"mean_dwell_windows"`
	// Defender reaction over the campaign (protector stat deltas).
	GroupsFlagged   int64 `json:"groups_flagged"`
	GroupsCorrected int64 `json:"groups_corrected"`
	GroupsZeroed    int64 `json:"groups_zeroed"`
	WeightsZeroed   int64 `json:"weights_zeroed"`
	// Rowhammer physics (zero when unpriced): seconds to induce one flip
	// and for the whole campaign, and the per-window cap they imply.
	SecondsPerFlip  float64 `json:"seconds_per_flip,omitempty"`
	CampaignSeconds float64 `json:"campaign_seconds,omitempty"`
	CapPerWindow    int     `json:"cap_per_window,omitempty"`
}

// Campaign executes an attacker's plan window by window against a live
// defense: the same rolling sweep serve runs, on a window clock. Run leaves
// the model in its horizon state (undetected flips still live) so the
// caller can measure accuracy under attack; Settle then runs the
// defender's final full sweep for the post-recovery measurement.
type Campaign struct {
	t   Target
	opt Options
	atk Attacker

	volleys  []Volley
	pendingW map[quant.BitAddress]int
	pendingS map[SigFlip]int

	window                int
	mounted, sigMounted   int
	detected, sigDetected int
	dwellSum              int
	start                 core.Stats
	// t0 is the protector's newest stamp at planning: window w ticks at
	// t0 + w·ScrubEvery, never at wall time, so a campaign replays exactly.
	t0 time.Time
}

// NewCampaign plans the attacker's volleys against the target. The
// target's weights and golden store are not touched until Run.
func NewCampaign(t Target, atk Attacker, opt Options) *Campaign {
	rng := rand.New(rand.NewSource(opt.Seed))
	_, t0 := t.Prot.Verified()
	return &Campaign{
		t:        t,
		opt:      opt,
		atk:      atk,
		volleys:  atk.Plan(t, opt, rng),
		pendingW: make(map[quant.BitAddress]int),
		pendingS: make(map[SigFlip]int),
		start:    t.Prot.Stats(),
		t0:       t0,
	}
}

// Run executes every window: the defender's sweep tick first, then the
// attacker's volley for that window, which its planner already held to the
// rate cap. The model is left in the campaign-horizon state.
func (c *Campaign) Run() {
	for c.window = 0; c.window < c.opt.Windows; c.window++ {
		c.sweep(c.opt.ScrubEvery)
		c.mount(c.volleys[c.window])
	}
}

// Settle runs the defender's final full sweep — the state an operator
// sees after the attack is over and a full scan has run. No-op under
// NoDefense.
func (c *Campaign) Settle() {
	c.window = c.opt.Windows
	c.sweep(0)
}

// sweep runs the defender's tick at the window's clock with the given
// interval (0 = full sweep) and accounts which pending flips were caught.
func (c *Campaign) sweep(interval time.Duration) {
	if c.opt.NoDefense {
		return
	}
	now := c.t0.Add(time.Duration(c.window) * c.opt.ScrubEvery)
	flagged := c.t.Prot.SweepTick(now, interval).Flagged
	if len(flagged) == 0 {
		return
	}
	set := make(map[core.GroupID]bool, len(flagged))
	for _, g := range flagged {
		set[g] = true
	}
	for a, w := range c.pendingW {
		if set[c.t.Prot.GroupOf(a)] {
			c.detected++
			c.dwellSum += c.window - w
			delete(c.pendingW, a)
		}
	}
	for f, w := range c.pendingS {
		if set[core.GroupID{Layer: f.Layer, Group: f.Group}] {
			c.sigDetected++
			c.dwellSum += c.window - w
			delete(c.pendingS, f)
		}
	}
}

// mount applies one volley under the protector's write exclusion.
func (c *Campaign) mount(v Volley) {
	if v.Size() == 0 {
		return
	}
	c.t.Prot.Exclusive(func() { Mount(c.t, v) })
	c.mounted += len(v.Weights)
	c.sigMounted += len(v.Signatures)
	for _, a := range v.Weights {
		c.pendingW[a] = c.window
	}
	for _, f := range v.Signatures {
		c.pendingS[f] = c.window
	}
}

// Outcome summarizes the campaign so far (typically called after Settle).
func (c *Campaign) Outcome() Outcome {
	st := c.t.Prot.Stats()
	out := Outcome{
		Adversary:       c.atk.Name(),
		Budget:          c.opt.Flips,
		Mounted:         c.mounted,
		SigMounted:      c.sigMounted,
		Detected:        c.detected,
		SigDetected:     c.sigDetected,
		Survived:        len(c.pendingW) + len(c.pendingS),
		GroupsFlagged:   st.GroupsFlagged - c.start.GroupsFlagged,
		GroupsCorrected: st.GroupsCorrected - c.start.GroupsCorrected,
		GroupsZeroed:    st.GroupsZeroed - c.start.GroupsZeroed,
		WeightsZeroed:   st.WeightsZeroed - c.start.WeightsZeroed,
		CapPerWindow:    c.opt.CapPerWindow(),
	}
	if n := c.detected + c.sigDetected; n > 0 {
		out.MeanDwellWindows = float64(c.dwellSum) / float64(n)
	}
	if c.opt.Rate != nil {
		out.SecondsPerFlip = c.opt.Rate.SecondsPerFlip()
		out.CampaignSeconds = out.SecondsPerFlip * float64(c.mounted+c.sigMounted)
	}
	return out
}
