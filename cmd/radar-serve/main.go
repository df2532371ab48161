// Command radar-serve boots the protected inference service: one or more
// int8 engines compiled from zoo models, each wrapped in RADAR protection
// with its own request batcher, background scrubber and verified
// weight-fetch path, all behind the versioned HTTP control plane.
//
// Usage:
//
//	radar-serve -model tiny                               # single model
//	radar-serve -model a=tiny -model b=resnet20s          # multi-model
//	            [-addr :8080] [-g 8] [-scrub 100ms] [-correct NAME]
//	            [-store-dir DIR] [-store-sync 1s]
//	            [-debug-addr :6060] [-log-requests]
//
// -model is repeatable; "name=zoo" serves zoo model zoo under name, and a
// bare "zoo" uses the zoo name itself. -g and -scrub apply to every model
// (each still gets its own queue of 256, one inference worker per CPU,
// batches of up to 8 and its own scrubber); -scrub is the flip-exposure
// target of a model that gets no traffic. A -g below 1, or a negative
// -scrub or -store-sync, exits 2 before any model loads.
//
// -correct NAME (repeatable; "all" covers every model) opts the named
// served model into ECC-corrected recovery: scrub-flagged groups consult
// per-group Hamming check words and single-bit corruption is repaired in
// place instead of zeroed, with the corrected/zeroed split exported as
// radar_groups_corrected_total / radar_groups_zeroed_total.
//
// -store-dir DIR serves every model from an mmap-backed store checkpoint
// DIR/<name>.radar (converted from the trained gob weights on first use):
// the mapped file is the protected DRAM image, a background flusher makes
// scrubber recoveries durable with msync every -store-sync, and shutdown
// syncs and closes every checkpoint, so a restart resumes from the last
// recovered image instead of the original training output.
//
// Endpoints (see the README "Serving" section for curl examples):
//
//	POST   /v1/models/{name}/infer  sync inference
//	POST   /v1/models/{name}/jobs   async job submit → 202 + job ID
//	GET    /v1/jobs/{id}            poll a job
//	DELETE /v1/jobs/{id}            cancel a job
//	GET    /v1/models               hosted models, configuration, health
//	GET    /v1/metrics              Prometheus text exposition
//	GET    /v1/debug/traces         recent per-request stage timings
//	POST   /v1/admin/scrub          force a scrub cycle now
//	POST   /v1/admin/rekey          rotate protection secrets live
//	POST   /v1/admin/inject         mount an adversary volley (fault drill)
//	POST   /v1/admin/models/{name}  hot-add a zoo model ({"source":"tiny"})
//	DELETE /v1/admin/models/{name}  hot-remove a model
//
// SIGINT/SIGTERM triggers a graceful shutdown: the HTTP listener drains,
// queued requests (including pending jobs) are answered, then the
// scrubbers stop.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"radar/internal/core"
	"radar/internal/model"
	"radar/internal/qinfer"
	"radar/internal/serve"
	"radar/internal/store"
)

// modelFlag collects repeatable -model values ("zoo" or "name=zoo").
type modelFlag []string

func (m *modelFlag) String() string { return strings.Join(*m, ",") }
func (m *modelFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	var models modelFlag
	flag.Var(&models, "model", "zoo model to serve: tiny, resnet20s or resnet18s, optionally as name=zoo; repeatable (checkpoints load from testdata/models)")
	var corrects modelFlag
	flag.Var(&corrects, "correct", "served model name whose recovery is ECC-corrected instead of zeroing; repeatable, or \"all\"")
	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address")
		g         = flag.Int("g", 8, "RADAR group size (paper: 8 for ResNet-20, 512 for ResNet-18)")
		scrub     = flag.Duration("scrub", 100*time.Millisecond, "background scrub interval per model, the flip-exposure target of an idle model (0 disables; not negative)")
		storeDir  = flag.String("store-dir", "", "directory of mmap-backed store checkpoints, one <name>.radar per served model (empty = in-RAM weights)")
		storeSync = flag.Duration("store-sync", time.Second, "store checkpoint dirty-section flush interval (with -store-dir; 0 disables the background flusher; not negative)")
		debugAddr = flag.String("debug-addr", "", "optional separate listen address for net/http/pprof (empty disables)")
		logReqs   = flag.Bool("log-requests", false, "log every HTTP request (id, method, path, status, duration) via slog")
	)
	flag.Parse()
	if *g < 1 {
		fmt.Fprintf(os.Stderr, "-g must be at least 1, got %d\n", *g)
		os.Exit(2)
	}
	if *scrub < 0 || *storeSync < 0 {
		fmt.Fprintf(os.Stderr, "-scrub and -store-sync must not be negative, got %v and %v\n", *scrub, *storeSync)
		os.Exit(2)
	}
	if len(models) == 0 {
		models = modelFlag{"resnet20s"}
	}

	// checkpoints tracks every store checkpoint opened for a served model,
	// keyed by serve name; the background flusher and the shutdown path
	// iterate it. Guarded by ckptMu (hot-add runs on request goroutines).
	var (
		ckptMu      sync.Mutex
		checkpoints = map[string]*store.Checkpoint{}
	)

	// buildModel brings zoo model zoo up as name through serve.Build, at
	// start and as the provider behind POST /v1/admin/models/{name} (whose
	// source is the zoo name): -g and -correct set its protection, -scrub
	// its scrubber, and -store-dir binds it to DIR/<name>.radar.
	buildModel := func(name, zoo string) (*qinfer.Engine, *core.Protector, []serve.ModelOption, error) {
		spec, ok := model.SpecByName(zoo)
		if !ok {
			return nil, nil, nil, fmt.Errorf("unknown zoo model %q", zoo)
		}
		log.Printf("loading %s as %q (training on first use; cached under testdata/models)", spec.Name, name)
		pcfg := core.DefaultConfig(*g)
		pcfg.Correct = slices.Contains(corrects, name) || slices.Contains(corrects, "all")
		var path string
		if *storeDir != "" {
			path = filepath.Join(*storeDir, name+".radar")
		}
		m, err := serve.Build(spec, pcfg, path)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("model %q: %w", name, err)
		}
		if m.Ckpt != nil {
			log.Printf("model %q weights bound to %s (%.1f MB, %s)", name, path,
				float64(m.Ckpt.WeightBytes())/1e6, m.Ckpt.Backing())
			ckptMu.Lock()
			// A checkpoint already under this name is stale, left by a
			// hot-removed model or a failed add: the hot-add plane reserves
			// the name before it calls the provider, so no served model
			// still reads it.
			if old := checkpoints[name]; old != nil {
				old.Sync()
				old.Close()
			}
			checkpoints[name] = m.Ckpt
			ckptMu.Unlock()
		}
		recovery := "zeroing"
		if pcfg.Correct {
			recovery = "ECC-corrected"
		}
		log.Printf("model %q: %d layers, %d groups (G=%d, %s recovery)",
			name, len(m.Prot.Model.Layers), m.Prot.NumGroups(), *g, recovery)
		return m.Engine, m.Prot, append(m.Options, serve.WithScrub(*scrub)), nil
	}

	opts := []serve.ServiceOption{serve.WithModelProvider(buildModel)}
	var names []string
	for _, mv := range models {
		name, zoo := mv, mv
		if eq := strings.IndexByte(mv, '='); eq >= 0 {
			name, zoo = mv[:eq], mv[eq+1:]
		}
		if _, ok := model.SpecByName(zoo); !ok {
			fmt.Fprintf(os.Stderr, "unknown zoo model %q in -model %q\n", zoo, mv)
			os.Exit(2)
		}
		eng, prot, mopts, err := buildModel(name, zoo)
		if err != nil {
			log.Fatalf("%v", err)
		}
		opts = append(opts, serve.WithModel(name, eng, prot, mopts...))
		names = append(names, name)
	}

	svc, err := serve.Open(opts...)
	if err != nil {
		log.Fatalf("open service: %v", err)
	}

	// Background flusher: every -store-sync, msync the sections recovery
	// (or any other model-API write) dirtied, bounding how much repaired
	// state a crash can lose. The shutdown sync closes and forgets every
	// checkpoint, so a tick after it finds none.
	if *storeDir != "" && *storeSync > 0 {
		go func() {
			for range time.Tick(*storeSync) {
				ckptMu.Lock()
				for name, c := range checkpoints {
					if err := c.SyncDirty(); err != nil {
						log.Printf("store flush %q: %v", name, err)
					}
				}
				ckptMu.Unlock()
			}
		}()
	}

	log.Printf("serving %d model(s) [%s] on %s — scrub=%v kernel=%s (gemm+checksum)",
		len(names), strings.Join(names, ", "), *addr, *scrub, qinfer.GEMMKernel())
	if err := serve.ListenAndServe(*addr, *debugAddr, *logReqs, svc.Handler()); err != nil {
		log.Fatal(err)
	}
	svc.Close()
	// Scrubbers are stopped: make the final weight image durable and
	// release the mappings.
	ckptMu.Lock()
	for name, c := range checkpoints {
		if err := c.Sync(); err != nil {
			log.Printf("store sync %q: %v", name, err)
		}
		c.Close()
	}
	clear(checkpoints)
	ckptMu.Unlock()
}
