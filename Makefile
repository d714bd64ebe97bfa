# Development targets for the nested active-time scheduling library.

GO ?= go

.PHONY: all build test race test-race cover bench bench-core bench-smoke fuzz-smoke serve-smoke jobs-smoke delta-smoke loadgen-smoke obs-smoke cluster-smoke bench-e2e bench-e2e-smoke ci experiments experiments-quick vet fmt clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Alias kept alongside `race` so CI scripts can use either name.
test-race: race

# Short coverage-guided runs of the differential fuzz targets; seeds
# live in the packages' testdata/fuzz corpora.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzDinicVsPushRelabel -fuzztime=$(FUZZTIME) ./internal/maxflow
	$(GO) test -run='^$$' -fuzz=FuzzSimplexVsRatsimplex -fuzztime=$(FUZZTIME) ./internal/ratsimplex
	$(GO) test -run='^$$' -fuzz=FuzzDifferentialNested -fuzztime=$(FUZZTIME) ./internal/comb
	$(GO) test -run='^$$' -fuzz=FuzzSweepMatchesReference -fuzztime=$(FUZZTIME) ./internal/comb
	$(GO) test -run='^$$' -fuzz=FuzzGreedyRuns -fuzztime=$(FUZZTIME) ./internal/greedy
	$(GO) test -run='^$$' -fuzz=FuzzWarmVsCold -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz=FuzzCertificateFirst -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz=FuzzSolveHTTP -fuzztime=$(FUZZTIME) ./internal/server

# Service smoke: build the real activetimed binary, boot it on a
# random port, hit /healthz and /metrics over HTTP, validate the
# Prometheus exposition (names/types pinned by the golden test in
# internal/metrics), then SIGTERM and require a clean exit.
serve-smoke:
	$(GO) test -run='^TestServeSmoke$$' -count=1 -v ./cmd/activetimed
	$(GO) test -run='^TestExpositionGolden$$' -count=1 ./internal/metrics

# Job-API smoke: build the real binary, boot it with a single job
# runner under the priority policy, and require over real HTTP that a
# stack of interactive jobs reorders ahead of a queued batch job, the
# SSE stream replays spans, and /metrics carries the per-class series.
jobs-smoke:
	$(GO) test -run='^TestJobsSmoke$$' -count=1 -v ./cmd/activetimed
	$(GO) test -run='^TestCLIAsync$$' -count=1 -v ./cmd/atload

# Delta smoke: build the real activetimed binary with warm-start
# retention on, and require over real HTTP that a raised-g near-miss
# and a superset near-miss of a cached base both warm-start (and that
# a warm fallback refreshes the stale retained state), with the
# activetime_warm_* counters on /metrics matching.
delta-smoke:
	$(GO) test -run='^TestDeltaSmoke$$' -count=1 -v ./cmd/activetimed

# Load-generator smoke: the CLI-level smoke test, then a real atload
# run (short in-process closed loop) whose JSON report must be
# non-empty with zero 5xx responses.
loadgen-smoke:
	$(GO) test -run='^TestCLISmoke$$' -count=1 -v ./cmd/atload
	$(GO) run ./cmd/atload -requests 50 -concurrency 2 -seed 1 \
		-jobs-min 4 -jobs-max 12 -distinct 8 -report /tmp/atload-smoke.json
	test -s /tmp/atload-smoke.json
	grep -q '"http_5xx": 0' /tmp/atload-smoke.json
	rm -f /tmp/atload-smoke.json

# Telemetry smoke: boot the real binary with the wide-event pipeline
# on, drive sync + async + error traffic over real HTTP, and require
# /debug/events, /debug/slo, a tail-sampled trace, the new /metrics
# series, and a parseable JSONL event sink. Then an in-process atload
# run whose client results must cross-check 1:1 against the server's
# wide-event log.
obs-smoke:
	$(GO) test -run='^TestObsSmoke$$' -count=1 -v ./cmd/activetimed
	$(GO) run ./cmd/atload -requests 60 -concurrency 4 -seed 1 \
		-jobs-min 4 -jobs-max 12 -distinct 8 \
		-events-file /tmp/atload-obs-smoke.jsonl -report /tmp/atload-obs-smoke.json
	grep -q '"pass": true' /tmp/atload-obs-smoke.json
	rm -f /tmp/atload-obs-smoke.jsonl /tmp/atload-obs-smoke.json

# The end-to-end benchmark of record (bench/e2e, its own Go module;
# see bench/README.md): every workload 10 times untraced plus once
# traced, written to OUT. Compare two such directories with
#   cd bench && go run ./e2e -compare -bench-json ../BENCHMARK.json A B
OUT ?= ../.bench_build/runs/local
bench-e2e:
	cd bench && $(GO) run ./e2e -runs 10 -out $(OUT)

# The harness's own checks, which root `go test ./...` never reaches:
# vet, plan determinism, pinned fingerprints, the compare rules, and a
# short run of every workload end to end (~7 s). It also compiles the
# harness against the service packages it drives.
bench-e2e-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Regenerate the committed core-solver benchmark baseline
# (BENCH_core.json): fixed-seed instance families, median ns/op,
# allocs/op and the deterministic pivot/Dinic counters. Compare two
# baselines with: go run ./cmd/atbench -compare old.json new.json
bench-core:
	$(GO) run ./cmd/atbench -out BENCH_core.json

# One short bench-core iteration into /tmp; asserts the report is
# valid (atbench -compare reloads and schema-checks it) and that the
# deterministic counters did not drift from the committed baseline.
bench-smoke:
	$(GO) run ./cmd/atbench -quick -out /tmp/bench-smoke.json
	$(GO) run ./cmd/atbench -compare -check-counters BENCH_core.json /tmp/bench-smoke.json
	rm -f /tmp/bench-smoke.json

# Fleet smoke: build the real activetimed and atcluster binaries, boot
# three replicas behind the router over real HTTP, require that
# cache-affinity routing pins a (permuted) instance to one replica's
# cache, then SIGTERM that replica and require the router to eject it
# via the draining handshake while traffic keeps flowing.
cluster-smoke:
	$(GO) test -run='^TestClusterSmoke$$' -count=1 -v ./cmd/atcluster

# CI entry point: everything that must be green before merging.
ci: build vet test race fuzz-smoke serve-smoke jobs-smoke delta-smoke loadgen-smoke obs-smoke cluster-smoke bench-smoke bench-e2e-smoke

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem .

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

# Regenerate every table in EXPERIMENTS.md (full grids, ~5 s).
experiments:
	$(GO) run ./cmd/atexp

# Small grids for a fast smoke run (< 1 s).
experiments-quick:
	$(GO) run ./cmd/atexp -quick

clean:
	$(GO) clean ./...
	rm -f before.dot after.dot
