// Serving under fire, v1 edition: one protected inference service hosting
// two models — the ResNet-20 substitute and the tiny CNN — while a
// rowhammer adversary repeatedly mounts an MSB-flip profile against the
// live ResNet-20 weight image. Concurrent clients stream sync requests
// with a per-request deadline, a slice of the traffic goes through the
// async job API (Submit → Wait), and halfway through the run an admin
// rekey rotates the protection secrets without stopping traffic. Each
// model has its own batcher, scrubber and verified-fetch verifier; every
// attack round is detected and recovered.
package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"radar/internal/adversary"
	"radar/internal/attack"
	"radar/internal/core"
	"radar/internal/model"
	"radar/internal/qinfer"
	"radar/internal/quant"
	"radar/internal/serve"
	"radar/internal/tensor"
)

func compile(b *model.Bundle) (*qinfer.Engine, *core.Protector) {
	calib, _ := b.Attack.Batch(0, 64)
	eng, err := qinfer.Compile(b.Net, b.QModel, calib)
	if err != nil {
		panic(err)
	}
	return eng, core.Protect(b.QModel, core.DefaultConfig(8))
}

func main() {
	victim := model.Load(model.ResNet20sSpec())
	vicEng, vicProt := compile(victim)
	side := model.Load(model.TinySpec())
	sideEng, sideProt := compile(side)

	svc, err := serve.Open(
		serve.WithModel("resnet20", vicEng, vicProt,
			serve.WithScrub(5*time.Millisecond)),
		serve.WithModel("tiny", sideEng, sideProt,
			serve.WithScrub(5*time.Millisecond)),
	)
	if err != nil {
		panic(err)
	}
	defer svc.Close()

	// The adversary prepared a profile offline on its own copy of the
	// model (white-box assumption) and mounts it as rowhammer flips: direct
	// writes to the live weight image that no write observer sees.
	attacker := model.Load(model.ResNet20sSpec())
	acfg := attack.DefaultConfig(3)
	acfg.NumFlips = 9
	profile := attack.PBFA(attacker.QModel, attacker.Attack, acfg)
	volley := adversary.Volley{Weights: profile.Addresses()}

	// Traffic: four clients streaming single-image requests against the
	// victim model, each with a 2s deadline; every eighth request rides
	// the async job API instead of the sync path. A fifth client streams
	// the tiny side model to show the routing front-end keeps the two
	// weight images, scrubbers and metrics fully independent.
	x, labels := victim.Test.Batch(0, 200)
	vol := tensor.Volume(x.Shape[1:])
	input := func(i int) *tensor.Tensor {
		t := tensor.New(x.Shape[1:]...)
		copy(t.Data, x.Data[i*vol:(i+1)*vol])
		return t
	}
	sx, _ := side.Test.Batch(0, 32)
	svol := tensor.Volume(sx.Shape[1:])
	sideInput := func(i int) *tensor.Tensor {
		t := tensor.New(sx.Shape[1:]...)
		copy(t.Data, sx.Data[(i%32)*svol:(i%32+1)*svol])
		return t
	}

	var correct, total, asyncJobs, sideServed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i += 4 {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				req := serve.Request{Model: "resnet20", Input: input(i % 200)}
				var res serve.InferResult
				var err error
				if i%8 == 7 {
					var id serve.JobID
					if id, err = svc.Submit(ctx, req); err == nil {
						res, err = svc.Wait(ctx, id)
						mu.Lock()
						asyncJobs++
						mu.Unlock()
					}
				} else {
					res, err = svc.Infer(ctx, req)
				}
				cancel()
				if err != nil {
					return
				}
				mu.Lock()
				total++
				if res.Class == labels[i%200] {
					correct++
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := svc.Infer(context.Background(),
				serve.Request{Model: "tiny", Input: sideInput(i)}); err != nil {
				return
			}
			mu.Lock()
			sideServed++
			mu.Unlock()
		}
	}()

	// Three attack rounds, 30ms apart, against the serving resnet20 —
	// with a live admin rekey between rounds two and three.
	for round := 1; round <= 3; round++ {
		time.Sleep(30 * time.Millisecond)
		svc.Inject("resnet20", func(m *quant.Model) {
			adversary.Mount(adversary.Target{Model: m}, volley)
		})
		fmt.Printf("round %d: mounted %d flips against the live server\n",
			round, len(volley.Weights))
		if round == 2 {
			reports, _ := svc.Rekey("resnet20")
			fmt.Printf("admin rekey: model %s re-keyed live (pre-rekey sweep flagged %d, zeroed %d)\n",
				reports[0].Model, reports[0].Flagged, reports[0].Zeroed)
		}
	}
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Every live figure is a series on the service's one metrics surface
	// (GET /v1/metrics); read resnet20's from that exposition.
	var expo strings.Builder
	svc.WriteMetrics(&expo)
	series := func(name string) float64 {
		for _, line := range strings.Split(expo.String(), "\n") {
			if v, ok := strings.CutPrefix(line, name+`{model="resnet20"} `); ok {
				f, _ := strconv.ParseFloat(v, 64)
				return f
			}
		}
		return 0
	}
	reqs, batches := series("radar_requests_total"), series("radar_batches_total")
	mu.Lock()
	acc := float64(correct) / float64(total)
	mu.Unlock()
	fmt.Printf("\nserved %.0f resnet20 requests (%d async jobs) in %.0f batches (avg batch %.1f) — accuracy under attack %.1f%% (clean %s)\n",
		reqs, asyncJobs, batches, series("radar_batched_requests_total")/max(batches, 1), 100*acc, victim.MustClean())
	fmt.Printf("side model served %d requests, untouched by the attack\n", sideServed)
	fmt.Printf("scrubber: %.0f cycles, flagged %.0f, zeroed %.0f weights; rekeys %.0f\n",
		series("radar_scrub_cycles_total"), series("radar_scrub_flagged_total"),
		series("radar_scrub_zeroed_total"), series("radar_rekeys_total"))
	fmt.Printf("verified fetch: %.0f layer checks, flagged %.0f\n",
		series("radar_verify_scans_total"), series("radar_verify_flagged_total"))
	st := vicProt.Stats()
	fmt.Printf("protector totals: %d scans, %d groups flagged, %d recovered, %d weights zeroed\n",
		st.Scans, st.GroupsFlagged, st.GroupsRecovered, st.WeightsZeroed)

	if flagged, _ := vicProt.DetectAndRecover(); len(flagged) == 0 {
		fmt.Println("final sweep: model clean — every attack round was recovered without stopping traffic")
	} else {
		fmt.Printf("final sweep flagged %d groups (now recovered)\n", len(flagged))
	}
	if flagged, _ := sideProt.DetectAndRecover(); len(flagged) == 0 {
		fmt.Println("side model: clean throughout (independent guard, scrubber and metrics)")
	}
}
