# starmagic — reproduction of "Implementation of Magic-sets in a Relational
# Database System" (Mumick & Pirahesh, SIGMOD 1994).

GO ?= go

.PHONY: all build test test-short race cover check answers traffic fmt-check bench bench-pair table1 sweep ablation fuzz examples clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The race detector over every package whose state more than one goroutine
# reaches — concurrent executions against one engine, the server's
# connections, the group-commit log — and over the executor and the
# vectorized kernels those executions run; plus the benchmark-scale
# concurrency tests of internal/bench (its other tests take a minute).
race:
	$(GO) test -race ./internal/exec/... ./internal/engine/... ./internal/core/... ./internal/resource/... ./internal/storage/... ./internal/vec/... ./internal/wal/... ./internal/wire/... ./internal/opt/... ./internal/catalog/...
	$(GO) test -race -run Concurrent ./internal/bench/

cover:
	$(GO) test -cover ./...

# Full verification gate: formatting, build, vet, tests, the race detector
# (engine includes the crash-recovery suite in durable_test.go), the fast
# answer gate, vet and tests of the benchmark module (its own go.mod, so the
# root build never compiles it), and the benchmark's self-agreement check:
# every workload's timed pass twice, answers against the frozen digests,
# metrics within BENCHMARK.json's bounds.
check: fmt-check build test race answers
	cd benchmark && $(GO) vet ./... && $(GO) test .
	bash benchmark/run.sh --agree

# The fast answer gate: a 3 s timed run of each gated workload
# (BENCHMARK.json) on two seeds, then a 6 s traced run of each TRACED
# workload, whose checks add staged-plan parity and the Table-1 bounds (at
# 6 s the probe takes 3 repetitions). Every run must answer every read as
# benchmark/expected/ says and fail no operation; a failing run's FAILED
# lines are printed.
GATED = t1_small_adhoc t1_small_prepared t1_large wire_read
TRACED = t1_small_prepared t1_large
answers:
	@check() { \
		out=$$(bash benchmark/run.sh --workload $$1 --seed $$2 --seconds $$3 --trace $$4 2>&1); \
		line=$$(printf '%s\n' "$$out" | tail -n 1); \
		echo "$$1 seed $$2 trace $$4: $$line"; \
		case "$$line" in *'"correct":true'*'"failed":0,'*) ;; \
		*) printf '%s\n' "$$out" | grep FAILED >&2; \
		   echo "answers: $$1 (seed $$2, trace $$4) answered wrong or failed operations" >&2; exit 1 ;; esac; \
	}; \
	for s in 1994 2026; do for w in $(GATED); do check $$w $$s 3 0; done; done; \
	for w in $(TRACED); do check $$w 1994 6 1; done

# The functions of internal/exec, internal/engine and internal/plan that no
# gated workload reaches: each workload's timed pass (SECS, default 4) on
# coverage-instrumented builds, merged (see scripts/traffic-cover.sh).
traffic:
	WORKLOADS="$(GATED)" bash scripts/traffic-cover.sh

# gofmt as a gate: print offending files and fail if any exist.
fmt-check:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi

# Table 1 + figure benchmarks (testing.B)
bench:
	$(GO) test -bench=. -benchmem .

# Paired runs of one benchmark workload, this checkout against REF (checked
# out into a temporary git worktree): ten alternating pairs with fresh seeds,
# each side's median and quartiles, pairs won, and whether the medians differ
# by more than REF's interquartile range — the rule perf PRs are judged by.
#   make bench-pair W=t1_large REF=HEAD~1
bench-pair:
	bash scripts/bench-pair.sh $(W) $(REF)

# The paper's Table 1, normalized elapsed times
table1:
	$(GO) run ./cmd/table1 -reps 5

sweep:
	$(GO) run ./cmd/table1 -reps 3 -sweep

ablation:
	$(GO) run ./cmd/table1 -reps 3 -ablation

# Parser robustness fuzzing (bounded)
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 30s -run xxx ./internal/sql/
	$(GO) test -fuzz FuzzLikeMatch -fuzztime 15s -run xxx ./internal/exec/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/decisionsupport
	$(GO) run ./examples/extensibility
	$(GO) run ./examples/recursion
	$(GO) run ./examples/tpcd

clean:
	$(GO) clean -testcache
