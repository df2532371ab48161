// Command radar-attack runs the Progressive Bit-Flip Attack against a zoo
// model and prints the resulting vulnerable-bit profile with the paper's
// Table I/II characterization.
//
// Usage:
//
//	radar-attack [-model tiny|resnet20s|resnet18s] [-flips 10] [-seed 1] [-bit6] [-radar 0] [-workers 0]
//	radar-attack -adversary oblivious|scrub-timer|below-threshold|sigstore [-store ckpt.radar] [-flips 240] [-windows 12] [-full-every 4] [-scrub-ms 100] [-radar 32] [-correct] [-no-defense]
//
// With -radar G > 0 the model is RADAR-protected (group size G) before the
// attack, and afterwards the parallel incremental scan (ScanDirty, pool
// sized by -workers, 0 = one per CPU) reports how many of the attack's
// flips the defense would catch.
//
// With -adversary the command runs a defense-aware internal/adversary
// campaign instead of PBFA: the model is protected (-radar G, -correct
// selects ECC-corrected recovery over group zeroing), the campaign spends
// -flips bit flips over -windows scrub windows (full scan every
// -full-every-th window, rowhammer-priced at -scrub-ms per window; 0 =
// unpriced), and top-1 accuracy is reported clean, at the campaign horizon
// and after the defender settles. With -store the bundle's weights are
// mapped onto that checkpoint file (created from the trained zoo state
// when absent) and every repair is msync'd back to it — a campaign against
// a live weight file, not a RAM copy.
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
	flips := flag.Int("flips", 10, "number of bit flips (N_BF; campaign budget with -adversary)")
	seed := flag.Int64("seed", 1, "attack seed (selects the attack batch / campaign plan)")
	bit6 := flag.Bool("bit6", false, "restrict the attacker to MSB-1 (§VIII)")
	radarG := flag.Int("radar", 0, "RADAR group size for post-attack detection preview (0 = off; campaign default 32)")
	workers := flag.Int("workers", 0, "scan worker pool size (0 = one per CPU)")
	adv := flag.String("adversary", "", "run a defense-aware campaign: oblivious, scrub-timer, below-threshold or sigstore")
	storePath := flag.String("store", "", "campaign: mmap the weights onto this store checkpoint and msync repairs back")
	windows := flag.Int("windows", 12, "campaign: scrub windows the budget is spread over")
	fullEvery := flag.Int("full-every", 4, "campaign: every n-th window's scrub is a full scan (others incremental)")
	scrubMs := flag.Int("scrub-ms", 100, "campaign: window length for rowhammer flip pricing (0 = unpriced)")
	correct := flag.Bool("correct", false, "campaign: ECC-corrected recovery instead of group zeroing")
	noDefense := flag.Bool("no-defense", false, "campaign: disable the defender (undefended baseline)")
	flag.Parse()

	spec, ok := model.SpecByName(*which)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *which)
		os.Exit(2)
	}

	if *adv != "" {
		g := *radarG
		if g <= 0 {
			g = 32
		}
		opt := adversary.Options{
			Flips:      *flips,
			Windows:    *windows,
			FullEvery:  *fullEvery,
			ScrubEvery: time.Duration(*scrubMs) * time.Millisecond,
			Rate:       adversary.DefaultRateModel(),
			NoDefense:  *noDefense,
			Seed:       *seed,
		}
		runCampaign(spec, *adv, *storePath, g, *workers, *correct, opt)
		return
	}

	b := model.Load(spec)
	clean := model.Evaluate(b.Net, b.Test, 100)

	cfg := attack.DefaultConfig(*seed)
	cfg.NumFlips = *flips
	if *which == "resnet18s" {
		cfg.TopWeightsPerLayer, cfg.TrialCandidates, cfg.BatchSize = 40, 24, 64
	}
	if *bit6 {
		cfg.AllowedBits = []int{6}
	}

	var prot *core.Protector
	if *radarG > 0 {
		pcfg := core.DefaultConfig(*radarG)
		pcfg.Workers = *workers
		prot = core.Protect(b.QModel, pcfg)
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

	if prot != nil {
		// The PBFA trial loop dirtied the layers it touched; the
		// incremental scan re-checks only those.
		t1 := time.Now()
		flagged := prot.ScanDirty()
		detected := prot.CountDetected(profile.Addresses(), flagged)
		fmt.Printf("\nRADAR preview (G=%d, %d workers): incremental scan flagged %d groups in %v; %d/%d flips detected\n",
			*radarG, prot.Workers(), len(flagged), time.Since(t1).Round(time.Microsecond),
			detected, len(profile))
	}
}

// runCampaign executes one defense-aware adversary campaign end to end and
// prints the engagement summary.
func runCampaign(spec model.Spec, name, storePath string, g, workers int, correct bool, opt adversary.Options) {
	atk, err := adversary.New(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	b := model.Load(spec)
	if storePath != "" {
		ck, err := model.MapCheckpoint(b, storePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "map %s: %v\n", storePath, err)
			os.Exit(1)
		}
		defer func() {
			if err := ck.SyncDirty(); err != nil {
				fmt.Fprintf(os.Stderr, "sync %s: %v\n", storePath, err)
				os.Exit(1)
			}
			ck.Close()
		}()
		mode := "mmap"
		if !ck.Mapped() {
			mode = "in-RAM fallback"
		}
		fmt.Printf("store %s: %d layers, %d weight bytes (%s)\n",
			storePath, ck.NumLayers(), ck.WeightBytes(), mode)
	}
	clean := model.Evaluate(b.Net, b.Test, 100)

	cfg := core.DefaultConfig(g)
	cfg.Workers = workers
	cfg.Correct = correct
	p := core.Protect(b.QModel, cfg)

	recovery := "zeroing"
	if correct {
		recovery = "ECC-corrected"
	}
	defense := fmt.Sprintf("G=%d, %s recovery, full scan every %d of %d windows", g, recovery, opt.FullEvery, opt.Windows)
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
	if storePath != "" {
		fmt.Printf("msync'ing repaired sections back to %s\n", storePath)
	}
}
