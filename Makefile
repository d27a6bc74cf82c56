# Convenience targets for the JouleGuard reproduction.

GO ?= go

# The bench targets pipe `go test` through benchjson; without pipefail a
# failed run would be masked by the pipe's last command.
SHELL := /usr/bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: all build vet lint check test test-race race churn-race bench bench-check bench-profile perf replicate examples chaos-smoke serve-smoke cluster-smoke chaos-cluster hotpath-smoke obs-smoke meter-smoke qos-smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Lint: gofmt must leave no file unformatted, and vet must be clean.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

# The pre-merge gate: formatting + vet + the race-detector pass + the
# full-size shard-churn race test + the daemon, fleet and hot-path smoke
# tests + the coordinator-failover chaos run.
check: lint race churn-race serve-smoke cluster-smoke hotpath-smoke chaos-cluster obs-smoke meter-smoke qos-smoke

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Race-detector pass over the packages that share state across the
# experiment worker pool: the pool itself, the drivers, and the caches —
# plus the daemon, which shares sessions and the budget broker across
# request handlers.
race:
	$(GO) test -race ./internal/par/ ./internal/experiments/ ./internal/platform/ ./internal/server/ ./internal/client/ ./internal/cluster/ ./internal/load/ ./internal/measure/ ./internal/qos/ .

# The full-size (10k-session) shard-churn test under the race detector:
# the concurrent registry/broker workload the sharded session map exists
# for. `race` above already runs it at -short scale; this is the
# pre-merge full run.
churn-race:
	$(GO) test -race -run TestShardChurnRace ./internal/server/

# Daemon smoke test under the race detector: selfhost the daemon, drive
# 8 concurrent tenants for 200 iterations each, restart the daemon
# mid-run from a snapshot, and assert every tenant lands within 105% of
# its grant.
serve-smoke:
	$(GO) run -race ./cmd/loadgen -tenants 8 -iters 200 -restart-at 800 -check 1.05
	@echo "serve-smoke passed"

# Fleet smoke test under the race detector: run an in-process coordinator
# plus 3 member daemons, drive 12 tenants through coordinator placement,
# kill the busiest node once 360 iterations completed fleet-wide, and
# assert every tenant still lands within 105% of its grant after
# failover.
cluster-smoke:
	$(GO) run -race ./cmd/loadgen -cluster -nodes 3 -tenants 12 -iters 60 \
		-apps radar -platform Tablet -kill-at 360 -check 1.05
	@echo "cluster-smoke passed"

# Control-plane chaos under the race detector: the same fleet, but the
# coordinator itself is killed after 240 iterations and a WAL-tailing
# standby promotes (bumping the fencing epoch); a node kill at 480 then
# forces clients through coordinator rotation on the new primary. Every
# tenant must still land within 105% of its grant.
chaos-cluster:
	$(GO) run -race ./cmd/loadgen -cluster -nodes 3 -tenants 12 -iters 60 \
		-apps radar -platform Tablet -kill-coordinator-at 240 -kill-at 480 -check 1.05
	@echo "chaos-cluster passed"

# Observability smoke under the race detector: a traced 3-node fleet
# (v2 frames, every 8th round sampled) with a provenance auditor
# polling both halves of the custody chain while the primary
# coordinator is killed mid-run and a standby promotes. Asserts one
# distributed trace joins client -> daemon -> broker -> coordinator
# across the per-node /traces windows, and that every provenance layer
# sampled — including through the failover — conserves joules to
# within 1e-6.
obs-smoke:
	$(GO) run -race ./cmd/loadgen -cluster -nodes 3 -tenants 8 -iters 60 \
		-apps radar -platform Tablet -v2 -trace-every 8 -obs-check \
		-kill-coordinator-at 240 -check 1.05
	@echo "obs-smoke passed: cross-node trace join + provenance conservation through coordinator failover"

# Measurement smoke under the race detector: selfhost the daemon with
# the calibrated simulated meter as the billed energy source (client
# readings become physical stimulus) and seeded counter faults injected
# into it. Asserts every tenant lands within 105% of its grant on
# meter-attributed joules alone, and that the plausibility gate rejected
# the injected faults without billing a corrupted sample.
meter-smoke:
	$(GO) run -race ./cmd/loadgen -tenants 8 -iters 200 -meter sim -meter-faults -check 1.05
	@echo "meter-smoke passed"

# Tenant-protection smoke under the race detector: selfhost the daemon
# with the QoS ladder enabled and one adversarial tenant claiming ten
# honest tenants' worth of the pool under the best-effort tier. Asserts
# the adversary drew enforcement denials (including at least one shed —
# best-effort is sacrificed first, the guaranteed honest tenants never)
# while every honest tenant landed within 105% of its grant with its
# accuracy floor untouched.
qos-smoke:
	$(GO) run -race ./cmd/loadgen -tenants 6 -adversaries 1 -tier guaranteed -iters 300 \
		-qos-shed-at 0.5 -check 1.05 -expect-shed
	@echo "qos-smoke passed"

# Hot-path smoke under the race detector: the v2 binary frame stream end
# to end, every tenant within 105% of its grant over batched DoneNext
# frames. Its speed is `make perf`'s job.
hotpath-smoke:
	$(GO) run -race ./cmd/loadgen -tenants 8 -iters 200 -v2 -check 1.05
	@echo "hotpath-smoke passed"

# One scaled-down benchmark pass over every table/figure + ablations,
# merged into the machine-readable timing snapshot BENCH_experiments.json
# (rows a partial -bench run did not re-measure are kept).
bench:
	$(GO) test -run xxx -bench . -benchmem ./... | $(GO) run ./cmd/benchjson -merge BENCH_experiments.json > BENCH_experiments.json.tmp
	@mv BENCH_experiments.json.tmp BENCH_experiments.json

# Perf regression gate: re-measure the pinned hot-path benchmarks and
# fail if any got >20% slower than the committed snapshot — or allocates
# where the snapshot says it must not (the wire codecs and the decision
# path are pinned at 0 allocs/op).
bench-check:
	$(GO) test -run xxx -bench 'BenchmarkFrame|BenchmarkInprocDecision|BenchmarkSessionLookup' \
		-benchmem ./internal/wire/ ./internal/server/ \
		| $(GO) run ./cmd/benchjson -compare BENCH_experiments.json \
			-pin 'Frame|InprocDecision|SessionLookup'

# CPU + allocation profiles of the decision path into results/profiles/,
# ready for `go tool pprof`. The wire path is profiled live through the
# daemon's /debug/pprof/, and split into its layers by
# `bash perfbench/run.sh --workload serve-v2 --trace 1`.
bench-profile:
	@mkdir -p results/profiles
	$(GO) test -run xxx -bench BenchmarkInprocDecision -benchtime 200000x \
		-cpuprofile results/profiles/decision_cpu.prof \
		-memprofile results/profiles/decision_mem.prof ./internal/server/
	@echo "profiles in results/profiles/ (decision_*.prof)"

# The benchmark's workloads and run length, read from BENCHMARK.json so
# the list is kept in one place.
PERF_WORKLOADS = $(shell awk '/"workloads"/ {w = 1} w && /^[ \t]*\]/ {w = 0} w && /"name"/ {split($$0, f, "\""); print f[4]}' BENCHMARK.json)
PERF_SECONDS = $(shell awk -F '[:,]' '/"run_seconds"/ {print $$2 + 0}' BENCHMARK.json)

# Non-race performance run: each BENCHMARK.json workload once, seed 1,
# untraced. Every run prints its one-line JSON result (metrics, checks
# and environment; see perfbench/README.md) and fails if its checks do.
perf:
	@for w in $(PERF_WORKLOADS); do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds $(PERF_SECONDS) --trace 0; \
	done

# Full-size regeneration of the paper's evaluation into results/.
replicate:
	$(GO) run ./cmd/replicate

# Scaled-down fault-injection sweep: 3 benchmarks under every default
# chaos scenario, asserting the energy guarantee holds throughout.
chaos-smoke:
	$(GO) run ./cmd/chaos -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/batterylife
	$(GO) run ./examples/serversearch
	$(GO) run ./examples/customapp
	$(GO) run ./examples/approxhw
	$(GO) run ./examples/realmachine

clean:
	rm -rf results
