// Command radar-attack runs the Progressive Bit-Flip Attack against a zoo
// model and prints the resulting vulnerable-bit profile with the paper's
// Table I/II characterization; with -radar it then plays the full RADAR
// round trip on a separate victim.
//
// Usage:
//
//	radar-attack [-model tiny|resnet20s|resnet18s] [-flips 10] [-seed 1] [-bit6] [-radar 0] [-sig 2] [-no-interleave] [-store ckpt.radar]
//	radar-attack -adversary oblivious|scrub-timer|below-threshold|sigstore [-store ckpt.radar] [-flips 240] [-windows 12] [-scrub-ms 100] [-radar 32] [-correct] [-no-defense]
//
// PBFA always runs offline on the attacker's own copy of the model. With
// -radar G > 0 a separate victim copy is protected (group size G, -sig
// signature bits, interleaved unless -no-interleave, secrets from -seed,
// scan pool of one worker per CPU), the profile is mounted on
// it as rowhammer flips (direct weight writes that no write observer
// sees), and a full scan flags and zeroes the hit groups; accuracy is
// reported clean → attacked → recovered, with the secure-storage cost.
// A -radar below 0, a -sig other than 2 or 3, or a -store with neither
// -radar nor -adversary exits 2 before anything runs.
//
// With -adversary the command runs a defense-aware internal/adversary
// campaign instead of PBFA: the model is protected (-radar G, -correct
// selects ECC-corrected recovery over group zeroing), the campaign spends
// -flips bit flips over -windows scrub windows, each opening with a tick
// of radar-serve's rolling sweep at a -scrub-ms interval, which also
// prices the flips through rowhammer physics (0 = a full sweep every
// window, unpriced), and top-1 accuracy is reported clean, at the campaign
// horizon and after the defender's final full sweep. With -adversary, a
// -windows or -flips below 1 exits 2 before anything runs, and so does a
// -scrub-ms below 0.
//
// -store PATH maps the victim's weights (the campaign's model, or the
// round trip's victim) onto that store checkpoint file, created from the
// trained zoo state when absent. The attack flips bits in the mapped
// file's page cache and every repair is msync'd back before exit, so a
// rerun against the same -store starts from the recovered image.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"radar/internal/adversary"
	"radar/internal/attack"
	"radar/internal/core"
	"radar/internal/model"
)

func main() {
	which := flag.String("model", "resnet20s", "target model: tiny, resnet20s or resnet18s")
	flips := flag.Int("flips", 10, "number of bit flips (N_BF; campaign budget with -adversary, at least 1)")
	seed := flag.Int64("seed", 1, "attack seed (selects the attack batch / campaign plan) and the round trip's secrets")
	bit6 := flag.Bool("bit6", false, "restrict the attacker to MSB-1 (§VIII)")
	radarG := flag.Int("radar", 0, "RADAR group size: protect a victim, mount the profile on it, scan and recover (0 = profile only; campaign default 32)")
	sig := flag.Int("sig", 2, "round trip: signature bits (2 or 3)")
	noInter := flag.Bool("no-interleave", false, "round trip: disable interleaving")
	adv := flag.String("adversary", "", "run a defense-aware campaign: oblivious, scrub-timer, below-threshold or sigstore")
	storePath := flag.String("store", "", "mmap the victim's weights onto this store checkpoint and msync repairs back")
	windows := flag.Int("windows", 12, "campaign: scrub windows the budget is spread over (at least 1)")
	scrubMs := flag.Int("scrub-ms", 100, "campaign: window length, the defender's sweep interval and the rowhammer pricing window (0 = a full sweep every window, unpriced; not negative)")
	correct := flag.Bool("correct", false, "campaign: ECC-corrected recovery instead of group zeroing")
	noDefense := flag.Bool("no-defense", false, "campaign: disable the defender (undefended baseline)")
	flag.Parse()

	spec, ok := model.SpecByName(*which)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *which)
		os.Exit(2)
	}
	if *radarG < 0 || (*sig != 2 && *sig != 3) {
		fmt.Fprintf(os.Stderr, "-radar must be at least 0 and -sig 2 or 3 (got -radar %d -sig %d)\n", *radarG, *sig)
		os.Exit(2)
	}
	if *adv != "" && (*windows < 1 || *flips < 1 || *scrubMs < 0) {
		fmt.Fprintf(os.Stderr, "-adversary needs -windows and -flips of at least 1 and -scrub-ms of at least 0 (got -windows %d -flips %d -scrub-ms %d)\n", *windows, *flips, *scrubMs)
		os.Exit(2)
	}
	if *storePath != "" && *radarG == 0 && *adv == "" {
		fmt.Fprintln(os.Stderr, "-store maps the victim's weights: it needs -radar G or -adversary")
		os.Exit(2)
	}

	if *adv != "" {
		g := *radarG
		if g == 0 {
			g = 32
		}
		opt := adversary.Options{
			Flips:      *flips,
			Windows:    *windows,
			ScrubEvery: time.Duration(*scrubMs) * time.Millisecond,
			Rate:       adversary.DefaultRateModel(),
			NoDefense:  *noDefense,
			Seed:       *seed,
		}
		runCampaign(spec, *adv, *storePath, g, *correct, opt)
		return
	}

	// The attacker derives the profile offline on its own model copy.
	b := model.Load(spec)
	clean := model.Evaluate(b.Net, b.Test, 100)

	cfg := attack.ConfigFor(spec.Name, *flips, *seed)
	if *bit6 {
		cfg.AllowedBits = []int{6}
	}

	t0 := time.Now()
	profile := attack.PBFA(b.QModel, b.Attack, cfg)
	elapsed := time.Since(t0)
	attacked := model.Evaluate(b.Net, b.Test, 100)

	fmt.Printf("model %s: clean %.2f%% → attacked %.2f%% (%d flips in %v)\n\n",
		spec.Name, 100*clean, 100*attacked, len(profile), elapsed.Round(time.Millisecond))
	fmt.Println("vulnerable-bit profile:")
	for i, f := range profile {
		fmt.Printf("  %2d. %-14s layer=%-32s %4d → %4d   batch loss %.3f\n",
			i+1, f.Addr, b.QModel.Layers[f.Addr.LayerIndex].Name, f.Before, f.After, f.LossAfter)
	}
	s := attack.Classify([]attack.Profile{profile})
	r := attack.ClassifyRanges([]attack.Profile{profile})
	fmt.Printf("\nbit positions: MSB(0→1)=%d MSB(1→0)=%d others=%d\n", s.MSB01, s.MSB10, s.Others)
	fmt.Printf("weight ranges: (-128,-32]=%d (-32,0]=%d (0,32)=%d [32,127)=%d\n",
		r.NegLarge, r.NegSmall, r.PosSmall, r.PosLarge)

	if *radarG == 0 {
		return
	}
	fmt.Println()
	pcfg := core.Config{G: *radarG, Interleave: !*noInter, SigBits: *sig, Seed: *seed}
	victim, prot, vclean, done := protectVictim(spec, *storePath, pcfg)
	defer done()
	st := prot.Storage()
	fmt.Printf("protected %s: G=%d interleave=%v sig=%d-bit scan workers=%d\n",
		spec.Name, *radarG, !*noInter, *sig, prot.Workers())
	fmt.Printf("secure storage: %.2f KB signatures + %d key bits + %d offset bits (%.2f KB total)\n",
		st.SignatureKB(), st.KeyBits, st.OffsetBits, st.TotalBytes()/1024)

	addrs := profile.Addresses()
	adversary.Mount(adversary.Target{Model: victim.QModel}, adversary.Volley{Weights: addrs})
	vattacked := model.Evaluate(victim.Net, victim.Test, 100)
	flagged, zeroed := prot.DetectAndRecover()
	detected := prot.CountDetected(addrs, flagged)
	recovered := model.Evaluate(victim.Net, victim.Test, 100)

	fmt.Printf("\nrowhammer flipped %d profile bits (no write observer saw them)\n", len(addrs))
	fmt.Printf("scan flagged %d groups; %d/%d flips detected; %d weights zeroed\n",
		len(flagged), detected, len(profile), zeroed)
	fmt.Printf("\naccuracy: clean %.2f%% → attacked %.2f%% → recovered %.2f%%\n",
		100*vclean, 100*vattacked, 100*recovered)
}

// protectVictim loads a fresh copy of spec, maps its weights onto the
// store checkpoint at storePath when one is given, measures its clean
// accuracy and protects it with cfg. done msyncs every repair back to the
// checkpoint and closes it; it does nothing without a store.
func protectVictim(spec model.Spec, storePath string, cfg core.Config) (b *model.Bundle, p *core.Protector, clean float64, done func()) {
	b = model.Load(spec)
	done = func() {}
	if storePath != "" {
		ck, err := model.MapCheckpoint(b, storePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "map %s: %v\n", storePath, err)
			os.Exit(1)
		}
		fmt.Printf("store %s: %d layers, %d weight bytes (%s)\n",
			storePath, ck.NumLayers(), ck.WeightBytes(), ck.Backing())
		done = func() {
			// Recovery's repairs marked their layers dirty through the
			// model observer; make them durable before exit.
			fmt.Printf("msync'ing repaired sections back to %s\n", storePath)
			if err := ck.SyncDirty(); err != nil {
				fmt.Fprintf(os.Stderr, "sync %s: %v\n", storePath, err)
				os.Exit(1)
			}
			ck.Close()
		}
	}
	clean = model.Evaluate(b.Net, b.Test, 100)
	return b, core.Protect(b.QModel, cfg), clean, done
}

// runCampaign executes one defense-aware adversary campaign end to end and
// prints the engagement summary.
func runCampaign(spec model.Spec, name, storePath string, g int, correct bool, opt adversary.Options) {
	atk, err := adversary.New(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	cfg := core.DefaultConfig(g)
	cfg.Correct = correct
	b, p, clean, done := protectVictim(spec, storePath, cfg)
	defer done()

	recovery := "zeroing"
	if correct {
		recovery = "ECC-corrected"
	}
	defense := fmt.Sprintf("G=%d, %s recovery, a sweep tick every %v (0s: a full sweep) opening each of %d windows", g, recovery, opt.ScrubEvery, opt.Windows)
	if opt.NoDefense {
		defense = "none (undefended baseline)"
	}
	fmt.Printf("campaign %s vs %s: budget %d flips, defense %s\n", name, spec.Name, opt.Flips, defense)
	if cap := opt.CapPerWindow(); cap > 0 {
		fmt.Printf("rowhammer pricing: %.1f ms/flip → cap %d flips per %v window\n",
			1e3*opt.Rate.SecondsPerFlip(), cap, opt.ScrubEvery)
	}

	camp := adversary.NewCampaign(adversary.Target{Model: b.QModel, Prot: p}, atk, opt)
	t0 := time.Now()
	camp.Run()
	live := model.Evaluate(b.Net, b.Test, 100)
	camp.Settle()
	settled := model.Evaluate(b.Net, b.Test, 100)
	o := camp.Outcome()

	fmt.Printf("\nmounted %d weight + %d signature flips; detected %d+%d, survived %d (mean dwell %.1f windows)\n",
		o.Mounted, o.SigMounted, o.Detected, o.SigDetected, o.Survived, o.MeanDwellWindows)
	fmt.Printf("defender: %d groups flagged, %d corrected in place, %d zeroed (%d weights)\n",
		o.GroupsFlagged, o.GroupsCorrected, o.GroupsZeroed, o.WeightsZeroed)
	if o.CampaignSeconds > 0 {
		fmt.Printf("physical attack time: %.1f s at %.1f ms/flip\n", o.CampaignSeconds, 1e3*o.SecondsPerFlip)
	}
	fmt.Printf("top-1 accuracy: clean %.2f%% → horizon %.2f%% → settled %.2f%% (wall %v)\n",
		100*clean, 100*live, 100*settled, time.Since(t0).Round(time.Millisecond))
}
