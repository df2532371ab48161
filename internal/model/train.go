package model

import (
	"fmt"
	"io"
	"math/rand"

	"radar/internal/data"
	"radar/internal/nn"
)

// TrainConfig controls a training run.
type TrainConfig struct {
	// Epochs is the number of passes over the training set.
	Epochs int
	// BatchSize is the minibatch size.
	BatchSize int
	// Optimizer selects "sgd" or "adam".
	Optimizer string
	// LR is the initial learning rate.
	LR float64
	// WeightDecay is the L2 coefficient on conv/linear weights.
	WeightDecay float64
	// LRDropEvery halves the learning rate every this many epochs (0 = no
	// schedule).
	LRDropEvery int
	// Seed drives batch shuffling.
	Seed int64
	// Log receives progress lines; nil silences logging.
	Log io.Writer
}

// Train optimizes net on train and returns the final test accuracy.
func Train(net *nn.Sequential, train, test *data.Dataset, cfg TrainConfig) float64 {
	var opt nn.Optimizer
	switch cfg.Optimizer {
	case "adam":
		opt = nn.NewAdam(cfg.LR, cfg.WeightDecay)
	default:
		opt = nn.NewSGD(cfg.LR, 0.9, cfg.WeightDecay)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	lr := cfg.LR
	for e := 0; e < cfg.Epochs; e++ {
		if cfg.LRDropEvery > 0 && e > 0 && e%cfg.LRDropEvery == 0 {
			lr /= 2
			opt.SetLR(lr)
		}
		train.Shuffle(rng)
		var lossSum float64
		batches := 0
		for lo := 0; lo+cfg.BatchSize <= train.Len(); lo += cfg.BatchSize {
			x, labels := train.Batch(lo, lo+cfg.BatchSize)
			net.ZeroGrad()
			out := net.Forward(x, true)
			loss, g := nn.SoftmaxCrossEntropy(out, labels)
			net.Backward(g)
			opt.Step(net.Params())
			lossSum += loss
			batches++
		}
		if cfg.Log != nil {
			acc := Evaluate(net, test, cfg.BatchSize)
			fmt.Fprintf(cfg.Log, "epoch %2d  loss %.4f  test acc %.2f%%\n",
				e+1, lossSum/float64(batches), 100*acc)
		}
	}
	return Evaluate(net, test, cfg.BatchSize)
}

// Evaluate returns the eval-mode accuracy of net on d.
func Evaluate(net *nn.Sequential, d *data.Dataset, batch int) float64 {
	if batch <= 0 {
		batch = 64
	}
	correct := 0
	for lo := 0; lo < d.Len(); lo += batch {
		hi := lo + batch
		if hi > d.Len() {
			hi = d.Len()
		}
		x, labels := d.Batch(lo, hi)
		out := net.Forward(x, false)
		k := out.Shape[1]
		for i := range labels {
			if out.Argmax(i*k, k) == labels[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(d.Len())
}
