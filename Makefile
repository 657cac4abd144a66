GO ?= go

# Where bench-diff / bench-baseline write their short-mode reports. The
# committed baselines live in bench/baselines/; fresh runs go to a scratch
# directory so the working tree stays clean.
BENCH_BASELINE_DIR ?= bench/baselines
BENCH_FRESH_DIR ?= /tmp/advnet-bench

.PHONY: all build test vet race bench swarm-bench serve-race faults verify bench-short bench-diff bench-baseline bench-e2e-check bench-e2e-smoke seam-check

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The concurrent code lives in the rollout lanes (internal/rl/lane.go, fanned
# out by VecRunner.TrainIteration in internal/rl/vec.go) and the evaluation
# fan-outs (internal/rl/evaluate.go, the EvaluateABR*
# helpers in internal/core); the race detector over the full test suite —
# which includes the W>1 golden tests — is the check that keeps them honest.
race:
	$(GO) test -race ./...

# Micro-benchmarks for the NN hot path (must report 0 allocs/op), the
# batched passes (the one bitwise kernel every trainer runs vs the FMA
# inference forward behind NewBatchCacheGEMM), the parallel PPO
# iteration (W=1 vs W=4), the parallel dataset evaluation (W=1 vs W=4), and
# the indexed trace-link download (prefix-sum vs historical linear rescan).
# Results are recorded in EXPERIMENTS.md.
bench:
	$(GO) test -run 'xxx' -bench 'BenchmarkMLPForward|BenchmarkMLPBackward|BenchmarkForwardBatch|BenchmarkPPOTrainIteration|BenchmarkEvaluateABR|BenchmarkServeStorm' -benchmem .
	$(GO) test -run 'xxx' -bench 'BenchmarkTraceLinkDownload' -benchmem ./internal/abr/
	$(GO) run ./cmd/serve -n 200000 -batch 32 -storm 128 -json BENCH_serve.json
	$(MAKE) swarm-bench

# Swarm-scale simulation benchmark: per-event cost of the fluid scheduler
# (must report 0 allocs/op in steady state) and the 100k-concurrent-session
# run on one machine, reported machine-readably in BENCH_swarm.json.
swarm-bench:
	$(GO) test -run 'xxx' -bench 'BenchmarkSwarmGroupEvent' -benchmem ./internal/swarm/
	$(GO) run ./cmd/swarm -clients 100000 -groups 1024 -capacity 40 -protocol bb,rate,bola -json BENCH_swarm.json

# Serving-engine concurrency suite under the race detector: hot-reload
# consistency (snapshot swaps mid-storm, every response consistent with
# exactly one snapshot), the concurrent request storm, close semantics, and
# the degradation path (overload shedding, deadline aborts, shard-panic
# containment) with its abr fallback layer.
serve-race:
	$(GO) test -race -count=1 ./internal/serve/
	$(GO) test -race -count=1 -run 'PensieveServe' ./internal/abr/

# Crash-safety, fault-injection, and determinism suite (DESIGN.md §8.2/§8.3/
# §8.5/§8.7) under the race detector: bitwise checkpoint resume (rl trainers,
# abr env state, the robust pipeline, shard cursors), worker-panic containment
# (rollout workers, swarm groups, and serving shards), the divergence
# watchdog, shard determinism, zero-bandwidth download guards, the
# atomic-write crash simulation, the netem cross-run determinism suite, the
# swarm worker-count-invariance suite, the serving degradation contract
# (overload shedding, deadline bounds, close-during-storm, reload retry and
# circuit breaker, fallback decision identity) driven through the
# serve.enqueue / serve.flush / serve.reload chaos points, and the
# multi-process training suite (worker kill -9 lane reassignment, coordinator
# kill-and-resume, golden-fingerprint equivalence, checkpoint-directory
# ownership) driven through the dist.accept / dist.assign / dist.recv chaos
# points.
faults:
	$(GO) test -race -run 'Resume|Checkpoint|Panic|Divergence|Crash|WriteFileAtomic|EnvState|SessionState|Shard|Cursor|ZeroBandwidth|NonPositiveBandwidth|Determinism|SameSeed|Swarm|Overload|Deadline|Breaker|Reload|Fallback|Close|Fault|Dist' ./internal/rl/ ./internal/core/ ./internal/abr/ ./internal/fsx/ ./internal/trace/ ./internal/netem/ ./internal/swarm/ ./internal/serve/ ./internal/dist/

# Short-mode benchmark suite behind the regression gate: the same producers
# as the full `make bench` (serving storm, swarm simulation, adversary
# training, dataset evaluation) plus the multi-process training path, sized
# to finish in about a minute so CI can afford to rerun them on every push.
# Each writes a unified-schema BENCH_<area>.json (DESIGN.md §8.6) into the
# directory given as $(1).
define bench_short
	mkdir -p $(1)
	$(GO) run ./cmd/serve -n 60000 -batch 32 -storm 64 -json $(1)/BENCH_serve.json
	$(GO) run ./cmd/swarm -clients 4000 -groups 64 -capacity 40 -protocol bb,rate,bola -json $(1)/BENCH_swarm.json
	$(GO) run ./cmd/advtrain -domain abr -target bb -iters 6 -o $(1)/adversary.json -bench-json $(1)/BENCH_train.json
	$(GO) run ./cmd/abreval -generate 24 -protocols bb,rate,bola -bench-json $(1)/BENCH_eval.json
	$(GO) run ./cmd/disttrain -coordinator -lanes 4 -workers 2 -iters 6 -traces 16 -rollout-steps 256 -json $(1)/BENCH_dist.json
endef

bench-short:
	$(call bench_short,$(BENCH_FRESH_DIR))

# Regression gate: rerun the short-mode suite and judge it against the
# committed baselines. Exits non-zero when any regression-gated metric moved
# beyond its tolerance in the bad direction (or a report failed to produce).
bench-diff: bench-short
	$(GO) run ./cmd/benchdiff -baseline-dir $(BENCH_BASELINE_DIR) -fresh-dir $(BENCH_FRESH_DIR)

# Re-baseline after an intentional performance change: rerun the short-mode
# suite straight into bench/baselines/ and commit the result.
bench-baseline:
	$(call bench_short,$(BENCH_BASELINE_DIR))
	@rm -f $(BENCH_BASELINE_DIR)/adversary.json

# The repository benchmark (bench/e2e, BENCHMARK.json) is a module of its own
# that `go build ./... && go test ./...` never compiles; vet it and run its
# harness tests so a signature change in a package it calls cannot break it
# unnoticed.
bench-e2e-check:
	cd bench/e2e && $(GO) vet . && $(GO) test .

# The two workloads that run the training arithmetic, end to end for three
# seconds each: fails unless the run's last line reports "correct":true and
# "failed":0, i.e. on a per-unit digest that drifts, NaN/Inf in parameters or
# QoE, or dist parameters that are not bit-for-bit the in-process VecRunner's.
# No timing is judged here.
bench-e2e-smoke:
	@for w in robustify_abr dist_loopback; do \
		out=$$(bash bench/e2e/run.sh --workload $$w --seconds 3 | tail -n 1); \
		echo "$$w: $$out"; \
		echo "$$out" | grep -q '"correct":true' && echo "$$out" | grep -q '"failed":0[,}]' \
			|| { echo "bench-e2e-smoke: $$w did not report correct:true with failed:0"; exit 1; }; \
	done

# One trainer assembly (internal/rl/problem.go): every PPO trainer is built by
# rl.NewTrainer under the one rl.TrainOptions. Outside tests and the frozen
# benchmark module, NewPPO may be named on at most two lines (its definition
# and the seam's call), and internal/ declares exactly one TrainOptions
# struct — a tenth hand-assembled trainer or a fourth options struct fails
# here instead of in review.
seam-check:
	@n=$$(grep -rn 'NewPPO(' --include='*.go' . | grep -v '_test\.go:' | grep -vc '^\./bench/e2e/'); \
	if [ $$n -gt 2 ]; then echo "seam-check: NewPPO( on $$n non-test lines, want <= 2 (build trainers with rl.NewTrainer)"; exit 1; fi
	@n=$$(grep -rn 'TrainOptions struct' --include='*.go' internal | wc -l); \
	if [ $$n -ne 1 ]; then echo "seam-check: $$n TrainOptions structs under internal/, want exactly 1 (rl.TrainOptions)"; exit 1; fi

# Tier-1 verification: build + tests, plus vet, the race detector, the
# benchmark module's compile check and correctness smoke run, and the
# structural seam check.
verify: build vet test race bench-e2e-check bench-e2e-smoke seam-check
