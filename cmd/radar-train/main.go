// Command radar-train trains (or loads from the checkpoint cache) the
// scaled model zoo used by the experiments and reports clean quantized
// accuracies.
//
// Usage:
//
//	radar-train [-model tiny|resnet20s|resnet18s|all] [-v]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"radar/internal/model"
)

func main() {
	which := flag.String("model", "all", "model to train: tiny, resnet20s, resnet18s, or all")
	verbose := flag.Bool("v", false, "log per-epoch training progress")
	flag.Parse()

	order := []string{*which}
	if *which == "all" {
		order = []string{"tiny", "resnet20s", "resnet18s"}
	}

	for _, name := range order {
		spec, ok := model.SpecByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown model %q\n", name)
			os.Exit(2)
		}
		if *verbose {
			spec.Train.Log = os.Stdout
		}
		t0 := time.Now()
		b := model.Load(spec)
		fmt.Printf("%-10s trained/loaded in %-10v clean quantized accuracy %6.2f%%  (%d weights, %d quantized layers)\n",
			spec.Name, time.Since(t0).Round(time.Millisecond),
			100*b.CleanAccuracy, b.QModel.TotalWeights(), len(b.QModel.Layers))
	}
}
