GO ?= go
# BENCH_N names the committed perf-trajectory snapshot for this PR series.
BENCH_OUT ?= BENCH_7.json
BENCH_SCALE ?= 0.2

.PHONY: build test race lint bench bench-json

build:
	$(GO) build ./...

# lint runs simlint (tools/simlint): the five analyzers that machine-check
# the repo's determinism and kernel-discipline invariants over every
# production package. Kept separate from `test` so a house-rule violation
# is distinguishable from a test failure.
lint:
	$(GO) run ./tools/simlint ./...

test:
	$(GO) vet ./...
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs every root benchmark once: the ablations and one
# BenchmarkArtifact/<id> sub-benchmark per registered artifact.
bench:
	TFDARSHAN_BENCH_SCALE=$(BENCH_SCALE) $(GO) test -run '^$$' -bench 'BenchmarkArtifact|BenchmarkAblation' -benchtime 1x -benchmem .

# bench-json runs the benchmark suite once per artifact and emits the
# machine-readable perf snapshot (per-artifact ns/op, allocs/op, headline
# metrics). CI uploads it; committing it as BENCH_<n>.json records the
# perf trajectory across PRs.
bench-json:
	$(GO) run ./tools/benchjson -o $(BENCH_OUT) -scale $(BENCH_SCALE)
