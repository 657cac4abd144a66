GO ?= go

.PHONY: all build test vet race bench-check bench-ab seam-check verify

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The concurrent code is the one fan-out, par.Run (internal/par), and what it
# runs: the rollout lanes (internal/rl/lane.go, fanned out by
# VecRunner.TrainIteration), the evaluation shards (core.EvaluateABR*, the CC
# regression suite) and the swarm groups — plus the serving engine's shard
# workers; the race detector over the full test suite — which includes the
# W>1 golden tests — is the check that keeps them honest.
race:
	$(GO) test -race ./...

# "Is it still correct and allocation-neutral?" The repository benchmark
# (bench/e2e, BENCHMARK.json) is a module of its own that
# `go build ./... && go test ./...` never compiles, so vet it and run its
# harness tests; then run every workload of BENCHMARK.json for three seconds
# and fail on "correct":false (a per-unit digest that drifts, NaN/Inf, dist
# parameters that are not bit-for-bit the in-process VecRunner's), on a failed
# op, or on an allocation counter worse than bench/allocs.json by more than
# the bound BENCHMARK.json gives it. Observed and reference are printed for
# every counter. No timing is judged here: these facts hold on any machine.
# After an intentional allocation change, `go run ./cmd/benchab record`
# rewrites bench/allocs.json from the same runs (never edit it by hand).
bench-check:
	cd bench/e2e && $(GO) vet . && $(GO) test .
	$(GO) run ./cmd/benchab check

# "Did the timings move?" Paired runs of the merge-base with main (extracted
# and built under .bench_build/ab/) against the working tree, alternating
# which side goes first, at BENCHMARK.json's run_seconds: every run printed,
# then per workload and end-to-end metric the medians, the parent's quartiles,
# wins and the verdict. Ten pairs of all five workloads take about 35 minutes;
# `go run ./cmd/benchab ab -pairs 4 -workloads serve_mix -base <ref>` narrows it.
bench-ab:
	$(GO) run ./cmd/benchab ab

# One trainer assembly (internal/rl/problem.go): every PPO trainer is built by
# rl.NewTrainer under the one rl.TrainOptions. Outside tests and the frozen
# benchmark module, NewPPO may be named on at most two lines (its definition
# and the seam's call), and internal/ declares exactly one TrainOptions
# struct — a tenth hand-assembled trainer or a fourth options struct fails
# here instead of in review. Likewise one emulator (internal/netem/netem.go):
# a second handleAck method under internal/netem is a second emulator. And one
# fan-out (internal/par): recover() outside internal/par, in non-test code, is
# a second containment, and a second PanicError struct under internal/ is a
# second panic type. And one home per paper claim (internal/experiments/
# claims_test.go): a Go file under examples/ or a test outside
# internal/experiments that imports it is a second, unchecked harness.
seam-check:
	@n=$$(grep -rn 'NewPPO(' --include='*.go' --exclude-dir=.bench_build . | grep -v '_test\.go:' | grep -vc '^\./bench/e2e/'); \
	if [ $$n -gt 2 ]; then echo "seam-check: NewPPO( on $$n non-test lines, want <= 2 (build trainers with rl.NewTrainer)"; exit 1; fi
	@n=$$(grep -rn 'TrainOptions struct' --include='*.go' internal | wc -l); \
	if [ $$n -ne 1 ]; then echo "seam-check: $$n TrainOptions structs under internal/, want exactly 1 (rl.TrainOptions)"; exit 1; fi
	@n=$$(grep -rn '^func (.*) handleAck(' --include='*.go' internal/netem | wc -l); \
	if [ $$n -ne 1 ]; then echo "seam-check: $$n handleAck methods under internal/netem, want exactly 1 (one emulator)"; exit 1; fi
	@f=$$(grep -rln 'recover()' --include='*.go' --exclude-dir=.bench_build . | grep -v '_test\.go$$' | grep -v '^\./internal/par/'); \
	if [ -n "$$f" ]; then echo "seam-check: recover() outside internal/par in $$f (contain with par.Contain or par.Run)"; exit 1; fi
	@n=$$(grep -rn 'PanicError struct' --include='*.go' internal | wc -l); \
	if [ $$n -gt 1 ]; then echo "seam-check: $$n PanicError structs under internal/, want 1 (par.PanicError)"; exit 1; fi
	@f=$$(find examples -name '*.go' 2>/dev/null); \
	if [ -n "$$f" ]; then echo "seam-check: Go files under examples/: $$f (a paper claim is a row of internal/experiments/claims_test.go)"; exit 1; fi
	@f=$$(grep -rl '"advnet/internal/experiments"' --include='*_test.go' --exclude-dir=.bench_build . | grep -v '^\./internal/experiments/'); \
	if [ -n "$$f" ]; then echo "seam-check: $$f imports internal/experiments from a test (assert claims in internal/experiments/claims_test.go)"; exit 1; fi

# Tier-1 verification: build + tests, plus vet, the race detector, the
# benchmark's correctness and allocation check, and the structural seam check.
verify: build vet test race bench-check seam-check
