// Package attack implements the Progressive Bit-Flip Attack (PBFA) of
// Rakin et al. (ICCV 2019) against int8-quantized models, plus the
// knowledgeable-attacker variants of the RADAR paper §VIII and a random
// bit-flip baseline. PBFA is the threat RADAR defends against: it ranks
// weight bits by loss gradient, trial-flips the best candidates and commits
// the flip that maximizes the real loss, repeating progressively.
package attack

import (
	"math/rand"
	"sort"

	"radar/internal/data"
	"radar/internal/nn"
	"radar/internal/quant"
	"radar/internal/tensor"
)

// Flip records one committed bit flip.
type Flip struct {
	// Addr is the flipped bit.
	Addr quant.BitAddress
	// Before and After are the quantized values around the flip.
	Before, After int8
	// LossAfter is the attack-batch loss after committing the flip.
	LossAfter float64
}

// Profile is the ordered list of flips from one attack round — the paper's
// "vulnerable bit profile" that the hardware attacker then mounts as
// rowhammer flips (adversary.Mount).
type Profile []Flip

// Addresses returns just the bit addresses of the profile.
func (p Profile) Addresses() []quant.BitAddress {
	out := make([]quant.BitAddress, len(p))
	for i, f := range p {
		out[i] = f.Addr
	}
	return out
}

// Config controls a PBFA run.
type Config struct {
	// NumFlips is the number of bit flips to commit (paper: 5, 10, 20).
	NumFlips int
	// TopWeightsPerLayer is how many gradient-ranked weights per layer are
	// scored as candidates.
	TopWeightsPerLayer int
	// TrialCandidates is how many of the best gradient-ranked candidates
	// (pooled across layers) get a real loss evaluation before committing
	// (the progressive search). Larger is closer to exhaustive BFA but
	// slower.
	TrialCandidates int
	// BatchSize is the attacker's batch size drawn from its dataset.
	BatchSize int
	// Seed selects the attack batch (each round uses a fresh batch,
	// which is where attack-to-attack variability comes from).
	Seed int64
	// AllowedBits restricts which bit positions may be flipped; empty
	// means all 8. Section VIII's MSB-1 attacker passes {6}.
	AllowedBits []int
}

// DefaultConfig returns the configuration used throughout the paper's
// evaluation: 10 flips with a standard progressive search.
func DefaultConfig(seed int64) Config {
	return Config{
		NumFlips:           10,
		TopWeightsPerLayer: 20,
		TrialCandidates:    12,
		BatchSize:          32,
		Seed:               seed,
	}
}

// ConfigFor returns the PBFA configuration for the named zoo model:
// DefaultConfig with numFlips flips, except that the resnet18s substitute
// needs a wider search (40 weights per layer, 24 trials, batch 64) to
// approach the paper's damage levels.
func ConfigFor(model string, numFlips int, seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.NumFlips = numFlips
	if model == "resnet18s" {
		cfg.TopWeightsPerLayer, cfg.TrialCandidates, cfg.BatchSize = 40, 24, 64
	}
	return cfg
}

// candidate is a scored potential flip.
type candidate struct {
	addr quant.BitAddress
	gain float64 // estimated loss increase from the gradient linearization
}

// PBFA runs the progressive bit-flip attack on m using batches drawn from
// atk, committing cfg.NumFlips flips into the model's quantized storage
// (and its synchronized float weights). It returns the committed profile.
func PBFA(m *quant.Model, atk *data.Dataset, cfg Config) Profile {
	if cfg.NumFlips <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	x, labels := sampleBatch(atk, cfg.BatchSize, rng)

	allowed := cfg.AllowedBits
	if len(allowed) == 0 {
		allowed = []int{0, 1, 2, 3, 4, 5, 6, 7}
	}

	var profile Profile
	for flip := 0; flip < cfg.NumFlips; flip++ {
		grads := computeGrads(m, x, labels)

		// In-layer search: collect the gradient-ranked candidates of every
		// layer into one pool.
		var cands []candidate
		for li, l := range m.Layers {
			cands = append(cands, layerCandidates(li, l, grads[li], cfg.TopWeightsPerLayer, allowed)...)
		}
		if len(cands) == 0 {
			break
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].gain > cands[j].gain })

		// Cross-layer search: trial the top candidates with a real loss
		// evaluation and commit the strongest.
		trials := cfg.TrialCandidates
		if trials <= 0 {
			trials = 1
		}
		if trials > len(cands) {
			trials = len(cands)
		}
		bestLoss := -1.0
		bestIdx := 0
		for t := 0; t < trials; t++ {
			m.FlipBit(cands[t].addr)
			loss := nn.CrossEntropyLoss(m.Net.Forward(x, false), labels)
			m.FlipBit(cands[t].addr) // undo
			if loss > bestLoss {
				bestLoss, bestIdx = loss, t
			}
		}
		before, after := m.FlipBit(cands[bestIdx].addr)
		profile = append(profile, Flip{
			Addr: cands[bestIdx].addr, Before: before, After: after, LossAfter: bestLoss,
		})
	}
	return profile
}

// layerCandidates scans every weight of a layer, computes the best single
// bit flip by linearized gain ΔL ≈ g · scale · ΔQ, and returns the topK
// candidates by gain. Scanning all weights (rather than only the largest
// gradients) matters: a weight with a moderate gradient whose MSB flip
// moves it by the full ±128 often beats the top-gradient weight whose
// useful bit is already set.
func layerCandidates(li int, l *quant.Layer, grad []float32, topK int, allowed []int) []candidate {
	if topK <= 0 {
		topK = 1
	}
	best := make([]candidate, 0, len(l.Q))
	for i, q := range l.Q {
		g := float64(grad[i])
		if g == 0 {
			continue
		}
		c := candidate{gain: 0}
		found := false
		for _, b := range allowed {
			gain := g * float64(l.Scale) * float64(quant.FlipDelta(q, b))
			if gain > c.gain {
				c = candidate{
					addr: quant.BitAddress{LayerIndex: li, WeightIndex: i, Bit: b},
					gain: gain,
				}
				found = true
			}
		}
		if found {
			best = append(best, c)
		}
	}
	sort.Slice(best, func(a, b int) bool { return best[a].gain > best[b].gain })
	if len(best) > topK {
		best = best[:topK]
	}
	return best
}

// computeGrads runs one forward/backward pass on the attack batch and
// returns a copy of ∂L/∂w for each quantized layer. Batch-norm layers are
// switched to frozen running statistics for the pass, so the gradients are
// those of the inference-mode network the attacker actually corrupts.
func computeGrads(m *quant.Model, x *tensor.Tensor, labels []int) [][]float32 {
	setFrozenBN(m, true)
	defer setFrozenBN(m, false)
	m.Net.ZeroGrad()
	out := m.Net.Forward(x, true)
	_, g := nn.SoftmaxCrossEntropy(out, labels)
	m.Net.Backward(g)
	grads := make([][]float32, len(m.Layers))
	for i, l := range m.Layers {
		grads[i] = append([]float32(nil), l.Param.Grad.Data...)
	}
	return grads
}

// setFrozenBN toggles inference-statistics mode on every batch-norm layer.
func setFrozenBN(m *quant.Model, frozen bool) {
	m.Net.Visit(func(l nn.Layer) {
		if bn, ok := l.(*nn.BatchNorm2D); ok {
			bn.FrozenStats = frozen
		}
	})
}
