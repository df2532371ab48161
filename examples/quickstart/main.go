// Quickstart: protect a quantized model with RADAR, corrupt a weight bit
// the way a rowhammer attacker would, detect the corruption at "run time"
// and recover by zeroing the flagged group.
package main

import (
	"fmt"
	"math/rand"

	"radar/internal/core"
	"radar/internal/nn"
	"radar/internal/quant"
)

func main() {
	// Build and quantize a small network (any trained model works; the
	// quantizer snaps conv/linear weights onto an int8 grid).
	rng := rand.New(rand.NewSource(1))
	net := nn.BuildResNet(nn.ResNet20Config(4, 10), rng)
	qm := quant.Quantize(net)
	fmt.Printf("quantized %d weights across %d layers\n", qm.TotalWeights(), len(qm.Layers))

	// Protect: compute 2-bit golden signatures over interleaved, masked
	// groups of 16 weights. The signatures, keys and offsets are the only
	// state that must live in secure on-chip memory.
	prot := core.Protect(qm, core.DefaultConfig(16))
	st := prot.Storage()
	fmt.Printf("secure storage: %.2f KB of signatures (+%d key bits)\n", st.SignatureKB(), st.KeyBits)

	// Adversary: flip the MSB of a weight in DRAM (the PBFA pattern —
	// a small weight becomes a huge one).
	target := quant.BitAddress{LayerIndex: 3, WeightIndex: 42, Bit: 7}
	before, after := qm.FlipBit(target)
	fmt.Printf("attacker flipped %v: %d → %d\n", target, before, after)

	// Run-time scan: recompute signatures, compare with golden, zero out
	// the corrupted group.
	flagged, zeroed := prot.DetectAndRecover()
	fmt.Printf("scan flagged %d group(s); recovery zeroed %d weights\n", len(flagged), zeroed)

	// The model is clean again: a fresh scan reports nothing.
	if len(prot.Scan()) == 0 {
		fmt.Println("post-recovery scan: clean")
	}
}
