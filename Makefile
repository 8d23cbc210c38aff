# starmagic — reproduction of "Implementation of Magic-sets in a Relational
# Database System" (Mumick & Pirahesh, SIGMOD 1994).

GO ?= go

.PHONY: all build test test-short race cover check fmt-check bench bench-pair table1 sweep ablation fuzz examples clean

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
# vectorized kernels those executions run.
race:
	$(GO) test -race ./internal/exec/... ./internal/engine/... ./internal/core/... ./internal/resource/... ./internal/storage/... ./internal/vec/... ./internal/wal/... ./internal/wire/... ./internal/opt/... ./internal/catalog/...

cover:
	$(GO) test -cover ./...

# Full verification gate: formatting, build, vet, tests, the race detector
# (engine includes the crash-recovery suite in durable_test.go), and the
# benchmark's self-agreement check: every workload's timed pass twice,
# answers against the frozen digests, metrics within BENCHMARK.json's bounds.
check: fmt-check build test race
	bash benchmark/run.sh --agree

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
