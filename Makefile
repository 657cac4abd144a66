GO ?= go

.PHONY: all build test test-nofma vet race cpus bench-check bench-ab seam-check size-check verify

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Go's amd64 math.Exp (and with it math.Tanh and math.Pow) picks a fused
# multiply-add path or an SSE2 path at run time, so a golden recorded on an
# FMA host could differ on a host without FMA. The repository's exponential
# is mathx.Exp, which is the fused path written with math.FMA and so the same
# bits on every amd64 host; rerunning the packages whose goldens rest on it
# with FMA switched off (mathx's own digest, the nn kernel, the PPO and
# trainer goldens, the dist lanes) checks that it stays so.
test-nofma:
	GODEBUG=cpu.fma=off $(GO) test ./internal/mathx/ ./internal/nn/ ./internal/rl/ ./internal/core/ ./internal/dist/

# internal/nn's assembly is amd64-only; vetting the package for arm64 keeps
# its portable fallback (fma_stub.go, the Go loops) compiling as it grows.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/nn/

# The concurrent code is the one fan-out, par.Run (internal/par), and what it
# runs: the rollout lanes (internal/rl/lane.go, fanned out by
# VecRunner.TrainIteration, and by a dist worker for the lanes one collect
# frame lists), the two halves of every PPO update (rl.(*PPO).update), the
# evaluation shards (core.EvaluateABR*) and the swarm groups — plus the
# serving engine's callers, which gather a shard under its lock and hand it
# on to the next queued caller; the race detector over the full test suite —
# which includes the W>1 golden tests — is the check that keeps them honest.
race:
	$(GO) test -race ./...

# Code whose interleaving depends on how many cores run it is tested at one,
# two and four cores whatever the host has. A serve request that finds its
# shard idle is gathered on the caller's goroutine; one that finds it busy
# queues until the caller holding the shard hands it on, and which path it
# takes depends on how many callers run at once. The PPO update trains the
# policy and the value net on two goroutines, and a dist worker runs the
# lanes of one collect frame on a goroutine each; both run one after the
# other on one core and side by side on more, and the rl and dist goldens
# must hold either way. The lane count, not the core count, is part of a
# run's identity: TestTrainersOneLanePath pins the robust pipeline and the
# four adversary trainers at lanes 0, 1 and 4 to fixed fingerprints, and
# must hold at every core count.
cpus:
	$(GO) test -count=1 -cpu 1,2,4 ./internal/serve ./internal/rl ./internal/dist
	$(GO) test -count=1 -cpu 1,2,4 -run 'TestTrainersOneLanePath' ./internal/core

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
# internal/experiments that imports it is a second, unchecked harness. And
# one non-bitwise forward: a fused multiply-add (VFMADD) in any assembly under
# internal/nn other than the inference dense kernel (fma_amd64.s) would
# change the training kernel's rounding and with it every golden. The tanh
# kernel (tanh_amd64.s) is the one other file allowed to fuse, because it
# fuses exactly where mathx.Exp calls math.FMA, which is what makes it
# lane-exact to mathx.Tanh. And one tanh: every tanh, the inference cache's
# included, runs mathx.Tanh's sequence, so vtanh (the deleted vector tanh,
# a few ulps from mathx.Tanh) in any file name or file under internal/ or
# cmd/ is a second tanh kernel coming back. And one exponential
# (internal/mathx/exp.go): math.Exp and math.Tanh round differently with and
# without FMA, so a call to either in non-test Go under internal/ or cmd/ is
# a result that depends on the host. And one flush policy
# (internal/serve/engine.go, gather): a shard flushes when its queue runs dry,
# so a MaxWait or FlushImmediately knob anywhere under internal/ or cmd/ is a
# second policy coming back. And
# one Eq. 1 (internal/core/eq1.go): every adversary env returns core.Eq1's
# Value, so ABRGoalRebuffering, ABRGoalLowBitrate, CCGoal or CongestionScaleS
# in any .go file under internal/ or cmd/ is a deleted reward coming back.
# And one fault seam per site; the global registry is deleted: a test
# provokes a failure through what the code already consumes (an rl.Env, an
# abr.Protocol, a net.Listener, a corrupt file) or through the site's own
# private seam (fsx's rename/syncDir, serve's per-Engine beforeFlush), so
# advnet/internal/faults, a faults. call or an Armed() gate in any .go file
# under internal/ or cmd/ is the process-global hook map coming back. And one
# writer per on-disk format: every model (trainer checkpoint, policy,
# adversary, regression baseline) is an rl envelope, sha256-checked on load,
# so outside tests and the frozen benchmark module fsx.WriteFileAtomic( is
# named only in internal/rl (envelopes and the checkpoint manifest),
# internal/trace (datasets) and internal/metrics (reports), which stay plain
# JSON because people and other tools read and write them, and in
# internal/fsx itself; a write anywhere else is a fifth, undigested format.
# A func (m *MLP) Save or func Load( in internal/nn, or an adversarySnapshot
# anywhere under internal/ or cmd/, is a deleted bare-JSON model format coming
# back. And one set of weight transposes per network (internal/nn/kernel.go,
# transposes): the MLP rebuilds them after every weight write, so
# SetStaticWeights, InvalidateWeights, asmMinRows or axpy4Asm in any .go file
# under internal/ or cmd/ is a caller-owned staleness promise, a per-pass
# transpose or the per-output backward coming back. The kernels that replaced
# them (denseRow1Asm, gradRowsAsm, adamAsm) live in kernel_amd64.s, so the
# VFMADD rule above covers them. And row or go (ROADMAP 4(b)): the
# perturbation and fairness adversaries and the CC regression suite were
# deleted for want of a caller and a claim row, so one of their names, or of
# the indirections they went through (ccProblem, episodeTrace), in any .go
# file under internal/ or cmd/ is one of them coming back without its row; a
# caller alone does not make one. A helper that comes back with no
# production caller at all fails the module-root test callers_test.go
# (TestEveryDeclarationHasACaller, part of `make test`), which covers every
# declaration, so it needs no name here. And one in-flight representation:
# each netem flow's window and BBR's record of its packets are seq-indexed
# rings, because the emulator sends each flow's seqs in order, so a
# map[int64] in non-test Go under internal/netem or internal/cc is a hashed
# in-flight set coming back. And the serving engine owns no goroutine: every
# gather runs on a caller of Select, so a go statement in non-test Go under
# internal/serve is a worker coming back. Likewise a dist worker's lanes fan
# out through par.Run only, so a go statement in internal/dist/worker.go is a
# second fan-out. And one word for how a lane gets its traces: an
# abr.TrainEnv holds its lane, the lane count and a trace.Cursor, so
# ShardedDataset, ShardTraceSampler, NewTrainEnvSharded, TrainPensieveSharded
# or a Dataset.Shard method in any .go file under internal/ or cmd/ is the
# deleted shard layer coming back between the lane and its data. And lanes
# decide results, GOMAXPROCS decides speed: the lane count is rl.TrainOptions'
# and experiments.Config's Lanes, so the word Workers in non-test Go under
# internal/rl or internal/experiments is the old name of the lane count
# coming back, and a "workers" flag in advtrain, robustify, experiments,
# abreval, regress or swarm is a goroutine count that cannot change a result
# or a lane count under a hardware name. And a decision allocates per
# session, not per chunk: every ABR decision path observes through one
# Observation it refills with Session.ObservationInto, so a .Observation()
# call in non-test Go under internal/ or cmd/ is a fresh Observation per
# chunk coming back.
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
	@f=$$(grep -rl 'VFMADD' --include='*.s' internal/nn | grep -Ev '^internal/nn/(fma|tanh)_amd64\.s$$'); \
	if [ -n "$$f" ]; then echo "seam-check: VFMADD in $$f (the training kernel multiplies then adds; only the inference dense kernel and the tanh may fuse)"; exit 1; fi
	@f=$$( (grep -rl 'vtanh' internal cmd; find internal cmd -name '*vtanh*') | sort -u); \
	if [ -n "$$f" ]; then echo "seam-check: vtanh in $$f (one tanh: every tanh runs mathx.Tanh's sequence, through applyActivation)"; exit 1; fi
	@f=$$(grep -rlE 'math\.(Exp|Tanh)\(' --include='*.go' internal cmd | grep -v '_test\.go$$'); \
	if [ -n "$$f" ]; then echo "seam-check: math.Exp/math.Tanh in $$f (call mathx.Exp/mathx.Tanh: the same bits on every host)"; exit 1; fi
	@f=$$(grep -rlE 'MaxWait|FlushImmediately' --include='*.go' internal cmd); \
	if [ -n "$$f" ]; then echo "seam-check: MaxWait/FlushImmediately in $$f (a serve shard has one flush policy: flush when its queue runs dry)"; exit 1; fi
	@f=$$(grep -rlE 'ABRGoalRebuffering|ABRGoalLowBitrate|CCGoal|CongestionScaleS' --include='*.go' internal cmd); \
	if [ -n "$$f" ]; then echo "seam-check: a deleted adversary goal in $$f (one Eq. 1: every env returns core.Eq1's Value; ABR has only the Regret and Naive goals)"; exit 1; fi
	@f=$$(grep -rlE 'advnet/internal/faults|(^|[^[:alnum:]_])faults\.|Armed\(\)' --include='*.go' internal cmd); \
	if [ -n "$$f" ]; then echo "seam-check: a fault hook in $$f (one fault seam per site; the global registry is deleted)"; exit 1; fi
	@f=$$(grep -rl 'fsx\.WriteFileAtomic(' --include='*.go' --exclude-dir=.bench_build . | grep -v '_test\.go$$' | grep -Ev '^\./(bench/e2e|internal/(rl|trace|metrics|fsx))/'); \
	if [ -n "$$f" ]; then echo "seam-check: fsx.WriteFileAtomic in $$f (a model file is an rl envelope: write it with rl.WriteEnvelope)"; exit 1; fi
	@f=$$( (grep -rlE 'func \(m \*MLP\) Save|func Load\(' --include='*.go' internal/nn; grep -rl 'adversarySnapshot' --include='*.go' internal cmd) | sort -u); \
	if [ -n "$$f" ]; then echo "seam-check: a bare-JSON model format in $$f (every model file is an rl envelope)"; exit 1; fi
	@f=$$(grep -rlE 'SetStaticWeights|InvalidateWeights|asmMinRows|axpy4Asm' --include='*.go' internal cmd); \
	if [ -n "$$f" ]; then echo "seam-check: a caller-owned weight transpose in $$f (an MLP transposes its weights once per version)"; exit 1; fi
	@f=$$(grep -rlwE 'PerturbEnv|TrainPerturbAdversary|FairnessEnv|TrainFairnessAdversary|CCRegressionSuite|ccProblem|episodeTrace' --include='*.go' internal cmd); \
	if [ -n "$$f" ]; then echo "seam-check: a deleted symbol in $$f (ROADMAP 4(b), row or go: land it with a caller and a claim row, not alone)"; exit 1; fi
	@f=$$(grep -rl 'map\[int64\]' --include='*.go' internal/netem internal/cc | grep -v '_test\.go$$'); \
	if [ -n "$$f" ]; then echo "seam-check: map[int64] in $$f (in-flight state is seq-indexed: the emulator's window is contiguous)"; exit 1; fi
	@f=$$(grep -rlE '(^|[;{}])[[:space:]]*go[[:space:]]+(func|[[:alnum:]_.]+\()' --include='*.go' internal/serve | grep -v '_test\.go$$'); \
	if [ -n "$$f" ]; then echo "seam-check: a go statement in $$f (the engine serves on its callers)"; exit 1; fi
	@f=$$(grep -lE '(^|[;{}])[[:space:]]*go[[:space:]]+(func|[[:alnum:]_.]+\()' internal/dist/worker.go); \
	if [ -n "$$f" ]; then echo "seam-check: a go statement in $$f (a worker's lanes fan out through par.Run only)"; exit 1; fi
	@f=$$(grep -rlwE 'ShardedDataset|ShardTraceSampler|NewTrainEnvSharded|TrainPensieveSharded|func \(d \*Dataset\) Shard' --include='*.go' internal cmd); \
	if [ -n "$$f" ]; then echo "seam-check: the shard layer in $$f (lane w of W streams traces w, w+W, … through abr.TrainEnv's own cursor)"; exit 1; fi
	@f=$$( (grep -rlw 'Workers' --include='*.go' internal/rl internal/experiments | grep -v '_test\.go$$'; \
		grep -rlE '(^|[^[:alnum:]_])(flag|fs)\.[[:alnum:]]+\([^)]*"workers"' --include='*.go' cmd/advtrain cmd/robustify cmd/experiments cmd/abreval cmd/regress cmd/swarm) | sort -u); \
	if [ -n "$$f" ]; then echo "seam-check: a workers knob in $$f (the lane count is Lanes and -lanes; evaluation and swarm groups fan out over GOMAXPROCS)"; exit 1; fi
	@f=$$(grep -rl '\.Observation()' --include='*.go' internal cmd | grep -v '_test\.go$$'); \
	if [ -n "$$f" ]; then echo "seam-check: .Observation() in $$f (a decision path refills one Observation through Session.ObservationInto)"; exit 1; fi
	@f=$$(grep -rlwE 'SessionState|RestoreSession|trainEnvState|legacyKind' --include='*.go' internal cmd | grep -v '_test\.go$$'); \
	if [ -n "$$f" ]; then echo "seam-check: hand-written env state in $$f (an env checkpoints by its reset seed plus the lane's recorded actions)"; exit 1; fi

# "Is the tree still as small as it was?" Counts the lines of non-test Go
# under internal/, cmd/ and bench/, and of internal/nn's assembly, and fails
# when either exceeds its number in bench/size.json. A change that lowers a
# count lowers the number with it; one that raises a count raises the number
# in the same change and says by how much and why in CHANGES.md.
size-check:
	@goref=$$(sed -n 's/.*"go_lines": *\([0-9]*\).*/\1/p' bench/size.json); \
	asmref=$$(sed -n 's/.*"nn_asm_lines": *\([0-9]*\).*/\1/p' bench/size.json); \
	lines=$$(find internal cmd bench -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
	asm=$$(cat internal/nn/*.s | wc -l); \
	echo "size-check: non-test Go $$lines lines (bench/size.json $$goref), internal/nn assembly $$asm lines ($$asmref)"; \
	if [ -z "$$goref" ] || [ -z "$$asmref" ]; then echo "size-check: bench/size.json lacks go_lines or nn_asm_lines"; exit 1; fi; \
	if [ $$lines -gt $$goref ] || [ $$asm -gt $$asmref ]; then echo "size-check: the tree grew past bench/size.json (raise the number in the same change and say why in CHANGES.md)"; exit 1; fi; \
	if [ $$lines -lt $$goref ] || [ $$asm -lt $$asmref ]; then echo "size-check: the tree is smaller than bench/size.json: lower the number to the count above"; fi

# Tier-1 verification: build + tests, plus vet, the FMA-off rerun, the race
# detector, serve, rl and dist at several core counts, the benchmark's
# correctness and allocation check, the structural seam check and the size
# check.
verify: build vet test test-nofma race cpus bench-check seam-check size-check
