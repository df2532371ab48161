# Single entry point shared by CI (.github/workflows/ci.yml) and local dev.

GO ?= go

.PHONY: build test race bench bench-smoke fuzz-smoke examples-smoke benchmark-check bench-compare serve-smoke fleet-smoke chaos-smoke lint fmt loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect the concurrent subsystems: the parallel scan engine, the
# serving stack (batching + scrubber + verified fetch under live flips),
# the inference engine's pooled conv scratch, the lock-free metrics
# registry under concurrent scrapes, the fleet router, the chaos proxy,
# the mmap store (dirty-tracking observers fire from scan workers), and
# the adversary campaign engine (volleys mount inside the protector's
# Exclusive section while scrubs run), plus the ECC corrector and timing-substrate
# property/fuzz seeds, the one CPU fan-out (cpu.Parallel), the float
# conv path: Conv2D.Forward's workers write disjoint slices of one output
# tensor, and Conv2D.Backward's write disjoint weight-gradient slots and
# input-gradient slices, each through its own column-gradient buffer, and
# data.Generate, whose workers sum disjoint images in their own buffers, and
# the dataset's materialization lock: reads of one shared data.Dataset from
# several goroutines each draw the prefix they need under it. The
# batching-policy tests build exact backlogs behind blocked workers, the
# rekey test rotates secrets under live traffic, the rolling-scrub test
# times a live ticker, and core's three lock tests (a rekey repairs before
# it rotates; a repairing fetch returns holding only the read lock; scans
# beside repairs and rekeys) pin the layer-lock protocol, and four
# goroutines race to draw one dataset's stream (TestBatchConcurrent), so
# they run ten times over.
race:
	$(GO) test -race -timeout 20m ./internal/core/... ./internal/serve/... ./internal/qinfer/... ./internal/obs/... ./internal/fleet/... ./internal/chaos/... ./internal/store/... ./internal/adversary/... ./internal/ecc/... ./internal/memsim/... ./internal/tensor/... ./internal/nn/... ./internal/cpu/... ./internal/data/...
	$(GO) test -race -count=10 -run 'TestBacklogBecomesBatches|TestShapeChangeCarriesOver|TestStopAnswersBacklog|TestRekeyLive|TestRekeyRepairsBeforeRotating|TestFetchRepairKeepsReadLock|TestGuardedRecoverConcurrentWithScans|TestRollingScrub|TestBatchConcurrent' ./internal/serve/ ./internal/core/ ./internal/data/

# Every paper table and figure at test scale (minutes; PBFA profile
# generation dominates), then every micro-benchmark once.
bench:
	$(GO) run ./cmd/radar-bench -scale quick
	$(GO) test -bench . -benchtime 1x -run '^$$' ./internal/...

# Fast guard that the scan + serve + replica bring-up + conv-kernel +
# int8-engine + compile + verified-fetch + float-walk benchmarks still
# compile and run (1 iteration; checkpoints come from testdata/models, so no
# training happens). 'Serve' matches BenchmarkServeBringUp, which times
# serve.Build, the one bring-up path replicas run; 'Conv' in nn matches the
# float conv's forward and backward.
bench-smoke:
	$(GO) test -bench='Scan|Serve' -benchtime=1x -run '^$$' ./internal/core/ ./internal/serve/
	$(GO) test -bench='Conv|NetForward' -benchtime=1x -run '^$$' ./internal/nn/
	$(GO) test -bench='Conv|EngineForward|Compile' -benchtime=1x -run '^$$' ./internal/qinfer/
	$(GO) test -bench FetchLayer -benchtime 1x -run '^$$' ./internal/core/

# Each native fuzz target explores for 10 s past its committed seeds
# (which `make test` already runs): the checksum kernel, the ECC
# corrector, the set-bit SEC-DED encoder against ecc.Hamming.Encode, the
# conv GEMM kernels (the implicit AVX2 kernel over phase planes, amd64, and
# the generic im2col one) and requantization against the
# reference loop, both requantization legs (conv row and residual add)
# against clampQ(relu(v)/scale) at arbitrary finite scales, the blocked
# float MatMul and MatMulTransA against the
# plain loops on both legs of their inner loop, Go and AVX2 (amd64), the
# infer-body parser against encoding/json, and the checkpoint loader
# (store.Open) on mutated files. A failing input lands in the package's
# testdata/fuzz, ready to commit.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSignatures$$' -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzCorrectorAtMostTwoFlips$$' -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeGroup$$' -fuzztime 10s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzConvGEMM$$' -fuzztime 10s ./internal/qinfer/
	$(GO) test -run '^$$' -fuzz '^FuzzRequant$$' -fuzztime 10s ./internal/qinfer/
	$(GO) test -run '^$$' -fuzz '^FuzzMatMul$$' -fuzztime 10s ./internal/tensor/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeInferRequest$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzStoreOpen$$' -fuzztime 10s ./internal/store/

# The three examples run to completion (in-process, loopback only; ≈ 10 s
# together, PBFA profile generation in examples/serving dominates), then
# radar-attack on the tiny model: the PBFA → rowhammer → scan → recover
# round trip and one defense-aware campaign (≈ 2 s together), and a
# campaign of zero windows, which must exit 2 before it starts. The binary
# is built once because `go run` reports every failing exit as 1.
examples-smoke:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/serving
	$(GO) run ./examples/fleet
	$(GO) build -o radar-attack ./cmd/radar-attack
	./radar-attack -model tiny -flips 3 -radar 8
	./radar-attack -model tiny -adversary scrub-timer -flips 8 -windows 2
	@code=0; out=$$(./radar-attack -model tiny -adversary oblivious -windows 0 2>&1) || code=$$?; \
	if [ $$code -ne 2 ] || echo "$$out" | grep -q '^campaign'; then \
		echo "radar-attack -windows 0 exited $$code, want 2 before any campaign:"; echo "$$out"; exit 1; fi
	rm -f radar-attack

# benchmark/ is its own Go module, so `go build ./...` and `go test ./...`
# at the root never compile it: vet it and run its tests (the -scale 0.03
# smoke of every workload among them) here, so a change that breaks the
# API it compiles against shows before the acceptance driver runs it.
benchmark-check:
	$(GO) vet -C benchmark .
	$(GO) test -C benchmark .

# The perf-regression gate, locally and in CI: three full runs of the
# benchmark on REF (default HEAD~1) and on the working tree, alternating,
# then `-compare` under BENCHMARK.json's bounds; exit 1 on a regression.
# Usage: make bench-compare [REF=<git-ref>].
bench-compare:
	./scripts/bench_compare.sh $(REF)

# Boot radar-serve on the tiny checkpoint and exercise the HTTP API.
serve-smoke:
	$(GO) build -o radar-serve ./cmd/radar-serve
	./scripts/serve_smoke.sh ./radar-serve
	rm -f radar-serve

# Boot three radar-serve replicas behind radar-fleet and exercise routed
# traffic, a mid-traffic replica kill and a rolling rekey; then a
# non-positive -attempt-timeout must exit 2 before the router listens.
fleet-smoke:
	$(GO) build -o radar-serve ./cmd/radar-serve
	$(GO) build -o radar-fleet ./cmd/radar-fleet
	./scripts/fleet_smoke.sh ./radar-serve ./radar-fleet
	@code=0; out=$$(timeout 10 ./radar-fleet -replica http://127.0.0.1:1 -attempt-timeout -1s 2>&1) || code=$$?; \
	if [ $$code -ne 2 ] || echo "$$out" | grep -q 'routing'; then \
		echo "radar-fleet -attempt-timeout -1s exited $$code, want 2 before listening:"; echo "$$out"; exit 1; fi
	rm -f radar-serve radar-fleet

# Boot the fleet with a fault-injecting radar-chaos proxy in front of
# every replica: a reconciliation drill (eject → fleet-wide hot-add →
# repair on readmission) and a gray-failure storm at ≥99% client success.
chaos-smoke:
	$(GO) build -o radar-serve ./cmd/radar-serve
	$(GO) build -o radar-fleet ./cmd/radar-fleet
	$(GO) build -o radar-chaos ./cmd/radar-chaos
	./scripts/chaos_smoke.sh ./radar-serve ./radar-fleet ./radar-chaos
	rm -f radar-serve radar-fleet radar-chaos

# vet covers the assembly (gemm_amd64.s, swar_amd64.s, axpy_amd64.s,
# cpu_amd64.s) through its asmdecl check. The arm64 lines keep the portable
# int8 and float GEMM and checksum paths and the probe's non-amd64 side
# compiling and vetted: on amd64 hosts with AVX2 nothing else ever builds
# those packages without the assembly (works offline, ≈ 20 s).
lint:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/qinfer/ ./internal/core/ ./internal/cpu/ ./internal/tensor/
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

fmt:
	gofmt -w .

# Non-test Go lines per internal package, for cmd/ and examples/, and in
# total: the count "net non-test lines go down" is judged by; assembly lines
# are printed beside it. benchmark/ is its own module and is not counted.
# The module root holds no Go package: every caller imports internal/*
# directly, and a .go file reappearing there fails the target.
LOC = xargs cat | wc -l | xargs printf '%-20s %6d\n'
loc:
	@out=$$(find . -maxdepth 1 -name '*.go'); if [ -n "$$out" ]; then \
		echo "Go files at the module root (the root holds no package):"; echo "$$out"; exit 1; fi
	@for d in internal/* cmd examples; do find $$d -name '*.go' ! -name '*_test.go' | $(LOC) $$d; done
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | $(LOC) total
	@find . -name '*.s' ! -path './benchmark/*' | $(LOC) 'total (.s)'
