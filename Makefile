GO ?= go

.PHONY: all build vet test race ci lint lint-selftest bench bench-check bench-scale bench-smoke examples

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Project-invariant static analysis (docs/lint.md): layering, hotpath
# (+compiler escape diff against lint/escape_allowlist.txt), shardowned,
# errtaxonomy, emitsafe.
lint:
	$(GO) run ./cmd/txgc-lint -escape ./...

# Prove the lint gate can fail: seed violations, expect nonzero exits.
lint-selftest:
	./scripts/lint_selftest.sh

ci: build vet lint race bench-smoke

bench:
	$(GO) test -run '^$$' -bench 'BenchmarkEngine' -benchtime 3000x -benchmem ./internal/engine/

# Fails if the engine hot path's allocs/op regresses above bench_budget.txt.
bench-check:
	./scripts/check_bench_budget.sh

# benchmark/ is a module of its own that `go build ./...` never compiles:
# this is the ≈5 s smoke that builds it against the root module and runs
# every workload and ladder rung once, so a root API change that breaks the
# repo's benchmark is noticed here and not by the next measurement.
bench-smoke:
	cd benchmark && test -z "$$(gofmt -l .)" && $(GO) vet . && $(GO) test .

# Multi-core scaling sweep: steps/s and client-observed p50/p99 per-step
# latency at 1, 2, 4, and 8 cores on the local and 5%-cross mixes.
bench-scale:
	$(GO) test -run '^$$' -bench 'BenchmarkEngineParallelScaling' -benchtime 20000x -benchmem -cpu 1,2,4,8 ./internal/engine/

# Build and run every example program against the public client facade.
examples: vet
	@for d in examples/*/; do \
		echo "== go run ./$$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
	done
	@echo "examples: all ran clean"
