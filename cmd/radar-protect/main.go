// Command radar-protect demonstrates the full RADAR round trip on a zoo
// model: protect → attack (a PBFA profile mounted as rowhammer flips:
// direct weight writes that no write observer sees) → run-time scan →
// zero-out recovery, reporting accuracy at every stage and the
// secure-storage cost.
//
// Usage:
//
//	radar-protect [-model resnet20s] [-g 8] [-flips 10] [-no-interleave] [-sig 2] [-workers 0] [-store PATH]
//
// -workers sizes the parallel scan engine's pool (0 = one per CPU); the
// flagged output is identical for every setting. A -g below 1 or a -sig
// other than 2 or 3 exits 2 before anything runs.
//
// -store PATH rebinds the victim's quantized weights to an mmap-backed
// store checkpoint at PATH before protecting: on first use the gob-trained
// weights are converted to the store format, afterwards the file itself is
// the protected DRAM image — the attack flips bits in the mapped file's
// page cache, and recovery's zeroing is made durable with msync before
// exit, so a rerun against the same -store starts from the recovered
// image.
package main

import (
	"flag"
	"fmt"
	"os"

	"radar/internal/adversary"
	"radar/internal/attack"
	"radar/internal/core"
	"radar/internal/model"
)

func main() {
	which := flag.String("model", "resnet20s", "target model: tiny, resnet20s or resnet18s")
	g := flag.Int("g", 8, "group size")
	flips := flag.Int("flips", 10, "number of PBFA bit flips")
	noInter := flag.Bool("no-interleave", false, "disable interleaving")
	sig := flag.Int("sig", 2, "signature bits (2 or 3)")
	seed := flag.Int64("seed", 1, "seed for attack batch and secrets")
	workers := flag.Int("workers", 0, "scan worker pool size (0 = one per CPU)")
	storePath := flag.String("store", "", "mmap-backed store checkpoint path (converted from the gob checkpoint on first use; empty = in-RAM weights)")
	flag.Parse()

	spec, ok := model.SpecByName(*which)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *which)
		os.Exit(2)
	}
	if *g < 1 || (*sig != 2 && *sig != 3) {
		fmt.Fprintf(os.Stderr, "-g must be at least 1 and -sig 2 or 3 (got -g %d -sig %d)\n", *g, *sig)
		os.Exit(2)
	}

	// Attacker derives the profile offline on its own model copy.
	atk := model.Load(spec)
	cfg := attack.DefaultConfig(*seed)
	cfg.NumFlips = *flips
	profile := attack.PBFA(atk.QModel, atk.Attack, cfg)

	// Victim: protected model whose DRAM the attacker hammers. With
	// -store, that DRAM image is the mapped checkpoint file.
	victim := model.Load(spec)
	if *storePath != "" {
		ckpt, err := model.MapCheckpoint(victim, *storePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "map store checkpoint: %v\n", err)
			os.Exit(1)
		}
		mode := "mmap"
		if !ckpt.Mapped() {
			mode = "in-RAM fallback"
		}
		fmt.Printf("weights bound to store checkpoint %s (%.1f MB, %s)\n",
			*storePath, float64(ckpt.WeightBytes())/1e6, mode)
		defer func() {
			// Recovery zeroing marked its layers dirty through the model
			// observer; make it durable before exit.
			if err := ckpt.SyncDirty(); err != nil {
				fmt.Fprintf(os.Stderr, "sync store checkpoint: %v\n", err)
			}
			ckpt.Close()
		}()
	}
	clean := model.Evaluate(victim.Net, victim.Test, 100)
	pcfg := core.Config{G: *g, Interleave: !*noInter, SigBits: *sig, Seed: *seed, Workers: *workers}
	prot := core.Protect(victim.QModel, pcfg)
	st := prot.Storage()
	fmt.Printf("protected %s: G=%d interleave=%v sig=%d-bit scan workers=%d\n",
		spec.Name, *g, !*noInter, *sig, prot.Workers())
	fmt.Printf("secure storage: %.2f KB signatures + %d key bits + %d offset bits (%.2f KB total)\n",
		st.SignatureKB(), st.KeyBits, st.OffsetBits, st.TotalBytes()/1024)

	addrs := profile.Addresses()
	adversary.Mount(adversary.Target{Model: victim.QModel}, adversary.Volley{Weights: addrs})
	attacked := model.Evaluate(victim.Net, victim.Test, 100)

	flagged, zeroed := prot.DetectAndRecover()
	detected := prot.CountDetected(addrs, flagged)
	recovered := model.Evaluate(victim.Net, victim.Test, 100)

	fmt.Printf("\nrowhammer flipped %d profile bits (no write observer saw them)\n", len(addrs))
	fmt.Printf("scan flagged %d groups; %d/%d flips detected; %d weights zeroed\n",
		len(flagged), detected, len(profile), zeroed)
	fmt.Printf("\naccuracy: clean %.2f%% → attacked %.2f%% → recovered %.2f%%\n",
		100*clean, 100*attacked, 100*recovered)
}
