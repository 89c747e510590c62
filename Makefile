GO ?= go

.PHONY: all build test vet lint lint-fixtures race stress fuzz-smoke obs-smoke check bench bench-smoke bench-selftest clean

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# jsqlint (cmd/jsqlint, internal/lint) machine-checks the executor's
# invariants that vet and the type system cannot: kernel-output aliasing,
# operator Close lifecycle, span lifecycle, selection-vector access
# discipline, locks held across NextBatch, discarded load-bearing errors,
# cancellation polling in absorbing loops, memory-governance charging,
# TypedCol view escapes, spill-run lifecycles, and raw null-bitmap access.
# `jsqlint -list` names the analyzers; see DESIGN.md "Invariants".
lint:
	$(GO) run ./cmd/jsqlint -stats ./...

# lint-fixtures runs only the analyzers' golden-fixture harness — the fast
# inner loop when developing an analyzer.
lint-fixtures:
	$(GO) test -run TestFixtures ./internal/lint/

# The observability substrate (internal/obsv) is shared by concurrent server
# queries; the race detector run is the gate that keeps it race-clean.
race:
	$(GO) test -race ./...

# The early-close stress test hammers the parallel pipeline breakers
# (aggregate, join build, sort) with LIMIT-truncated and abandoned queries;
# under the race detector it is the gate for the worker-shutdown paths.
stress:
	$(GO) test -race -run 'Stress' -count 2 ./internal/engine/

# fuzz-smoke gives each differential fuzzer a short budget so CI explores
# the plan-generator space beyond the checked-in seed corpus. The seeds
# themselves already run as unit tests under `make test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz 'FuzzPlanDiff' -fuzztime 30s ./internal/engine/

# obs-smoke boots a real jsqd with slow-query capture and a qlog sink, runs
# one query over HTTP, and asserts the observability contract end to end:
# one parseable query-log JSON record, a populated /debug/slow, and a live
# /metrics exposition.
obs-smoke:
	$(GO) run ./scripts/obssmoke

check: build vet lint test race

bench:
	$(GO) run ./cmd/adlbench -events 2000 -runs 1 -json BENCH_ADL.json
	$(GO) run ./cmd/ssbbench -sf 1 -sfs 0.5,1 -runs 1 -json BENCH_SSB.json

# bench-smoke compiles and single-iterates every Go benchmark so CI catches
# benchmark bit-rot without paying for real measurement runs.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# bench-selftest runs the repository benchmark (perfbench/, a nested module
# that imports this one) on every workload at tiny sizes and checks its
# oracles and BENCHMARK.json, so CI catches perfbench breaking against the
# root module. Takes about a minute including the build.
bench-selftest:
	bash perfbench/run.sh selftest

clean:
	rm -f BENCH_ADL.json BENCH_SSB.json
