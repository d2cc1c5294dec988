# treeaa — Round-Optimal Approximate Agreement on Trees
#
# Common developer entry points. Everything is stdlib-only Go >= 1.22.

GO ?= go

.PHONY: all build test race race-sim stress node-smoke overlay-smoke serve-smoke rolling-restart chaos-soak async-soak cover bench bench-sim bench-serve bench-compare scale-bench fuzz fuzz-short prop graph-prop check examples experiments clean

all: build test race-sim node-smoke overlay-smoke serve-smoke chaos-soak rolling-restart

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The sim engine's sequential/concurrent equivalence, the TCP transport's
# sim-equivalence, and the serving layer's per-session oracle identity must
# hold under the race detector; -short skips the 500-session load test,
# which serve-smoke covers from the outside.
race-sim:
	$(GO) test -race -short ./internal/sim/... ./internal/transport/... ./internal/session/...

# Race stress: the link, session, overlay and journal suites ten times over
# under the race detector, so host-sensitive races (teardown ordering, the
# journal's ticket/counter ordering) show up on every check rather than on
# one run in twenty.
stress:
	$(GO) test -race -short -count=10 ./internal/session/ ./internal/transport/ ./internal/overlay/ ./internal/journal/

# Multi-process smoke: spawn real cmd/node processes on loopback ports (an
# honest 3-node path cluster, then a 7-party splitvote deployment with the
# adversary host seat, then a block-graph deployment running TreeAA on the
# block-cut tree) and assert validity + agreement of the outputs.
node-smoke:
	$(GO) run ./cmd/node -cluster 3 -tree path:16
	$(GO) run ./cmd/node -cluster 7 -t 2 -tree path:40 -adversary splitvote
	$(GO) run ./cmd/node -cluster 4 -t 1 -space graph:cliquechain:3:4 -adversary splitvote

# Tree-overlay smoke: the same multi-process cmd/node deployments routed
# over a communication tree instead of the full mesh (leaves hold one
# connection), then a run with a mid-protocol sub-leader crash that must
# fail over and still agree.
overlay-smoke:
	$(GO) run ./cmd/node -cluster 7 -tree path:16 -overlay tree:2
	$(GO) run ./cmd/node -cluster 9 -t 2 -tree spider:3:3 -overlay tree:3 \
		-chaos 'crash:p1@r2'

# Serving-layer smoke: a 3-daemon loopback deployment hosting 100 concurrent
# sessions multiplexed over the shared links; exits non-zero if any session
# fails to decide or any Result diverges from the sequential sim.Run oracle.
# The second run turns on the journal and the observability endpoint and
# asserts /healthz and /metrics from the outside with curl while the
# cluster lingers.
serve-smoke:
	$(GO) run ./cmd/serve -cluster 3 -sessions 100 -tree spider:3:3
	@set -e; \
	$(GO) run ./cmd/serve -cluster 3 -sessions 100 -tree spider:3:3 \
		-journal-dir "$$(mktemp -d)" -metrics 127.0.0.1:9309 -linger 8s & pid=$$!; \
	ok=0; for i in $$(seq 1 60); do \
		if curl -sf http://127.0.0.1:9309/healthz 2>/dev/null | grep -q ok; then ok=1; break; fi; \
		sleep 0.25; done; \
	if [ $$ok -ne 1 ]; then echo "serve-smoke: /healthz never became ready" >&2; kill $$pid 2>/dev/null; exit 1; fi; \
	for fam in treeaa_sessions_decided_total treeaa_journal_appends_total; do \
		if ! curl -sf http://127.0.0.1:9309/metrics | grep -q "^$$fam"; then \
			echo "serve-smoke: /metrics missing $$fam" >&2; kill $$pid 2>/dev/null; exit 1; fi; done; \
	wait $$pid; \
	echo "serve-smoke: /healthz and /metrics asserted over HTTP"

# Rolling-restart durability smoke: a journaled 4-daemon loopback cluster
# under continuous closed-loop load, each daemon restarted in turn; fails
# on any oracle mismatch or a restart the mesh fails to absorb.
rolling-restart:
	$(GO) run ./cmd/serve -cluster 4 -rolling -sessions 16 -tree spider:3:3

# Chaos safety soak (~30s): the race-instrumented chaos/transport suites
# (reconnect-resend, crash-restart byte-identity, golden fault schedules),
# then a real fault sweep — seeds × {latency, stall, drop, crash,
# partition, combined} plans × adversaries over the TCP substrate, every
# cell checked for honest-hull validity, 1-agreement, and byte-identity
# with the sequential sim.Run oracle. Exits non-zero on any violation.
chaos-soak:
	$(GO) test -race -count=1 ./internal/chaos/... ./internal/transport/...
	$(GO) run ./cmd/chaos -seeds 1-2 -trees path:16
	$(GO) run ./cmd/node -cluster 4 -t 1 -tree path:16 -adversary splitvote \
		-chaos 'lat:500µs±500µs,crash:p1@r2'

# Asynchronous-mode soak: every async suite under the race detector — RBC
# threshold boundaries, pipeline invariants, the event-driven transport
# driver, the serving layer's async engines, the checker's async cells, and
# the chaos latency battery whose headline cell (lat:200ms±150ms on one
# party's links) aborts the synchronous round barrier but decides
# asynchronously with validity + 1-agreement — then a multi-process cmd/node
# async fleet under a real latency plan, plus an async serving smoke. Exits
# non-zero on any validity/epsilon-agreement violation.
async-soak:
	$(GO) test -race -count=1 -run Async ./internal/async/... ./internal/chaos/... \
		./internal/session/... ./internal/transport/... ./internal/check/ ./internal/wire/
	$(GO) run ./cmd/node -cluster 4 -tree star:6 -mode async -chaos 'lat:20ms±15ms@p2'
	$(GO) run ./cmd/serve -cluster 3 -mode async -sessions 50 -tree spider:3:3

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -20

bench:
	$(GO) test -bench=. -benchmem ./...

# Engine microbenchmarks (the BenchmarkSimRound family); `go run
# ./cmd/bench-rounds -json > BENCH_sim.json` snapshots the same cases.
bench-sim:
	$(GO) test -run xxx -bench SimRound -benchmem .

# Serving-layer closed-loop load bench: sweeps a worker grid against a
# 4-daemon loopback cluster — journal off, then on — and snapshots
# sessions/sec + latency percentiles as BENCH_service.json (the E-serve
# and E-durable tables' source).
bench-serve:
	$(GO) run ./cmd/serve-bench -json -journal-dir auto > BENCH_service.json
	@cat BENCH_service.json

# Mesh-vs-tree scaling sweep: drives the crash-fault AA workload over the
# full TCP mesh (n = 16, 64) and the tree overlay (n = 128, 256, 512) on
# loopback, every run oracle-checked, and snapshots conns/node, frames,
# bytes and round latency as BENCH_scale.json (the E-scale table's source).
scale-bench:
	$(GO) run ./cmd/scale-bench -json > BENCH_scale.json
	@cat BENCH_scale.json

# Serving-layer perf regression gate: rerun the bench grid and fail if any
# cell drops below 80% of the committed BENCH_service.json sessions/sec,
# then rerun the scaling sweep and fail any row whose physical frames/round
# exceeds 1.25x its committed BENCH_scale.json value.
# (Machine-sensitive — run on hardware comparable to the committed rows.)
bench-compare:
	$(GO) run ./cmd/serve-bench -json -journal-dir auto -compare BENCH_service.json > /dev/null
	$(GO) run ./cmd/scale-bench -json -compare BENCH_scale.json > /dev/null

# Short fuzz pass over every fuzz target (tree parsing, Prüfer codec,
# Euler-list invariants, hull/safe-area cross-checks, wire decoding).
fuzz:
	$(GO) test -run FuzzDecode -fuzz FuzzDecode -fuzztime 30s ./internal/wire/
	$(GO) test -run FuzzParse -fuzz FuzzParse -fuzztime 30s ./internal/tree/
	$(GO) test -run FuzzPruefer -fuzz FuzzPruefer -fuzztime 30s ./internal/tree/
	$(GO) test -run FuzzEulerList -fuzz FuzzEulerList -fuzztime 30s ./internal/tree/
	$(GO) test -run FuzzConvexHullSafeArea -fuzz FuzzConvexHullSafeArea -fuzztime 30s ./internal/tree/

# Quick fuzz pass: the same targets as `fuzz` at 10s each, for use as a
# pre-commit gate. FuzzDecode starts from the committed corpus under
# testdata/wire/corpus/ so even the short budget begins at deep decoder
# states.
fuzz-short:
	$(GO) test -run FuzzDecode -fuzz FuzzDecode -fuzztime 10s ./internal/wire/
	$(GO) test -run FuzzParse -fuzz FuzzParse -fuzztime 10s ./internal/tree/
	$(GO) test -run FuzzPruefer -fuzz FuzzPruefer -fuzztime 10s ./internal/tree/
	$(GO) test -run FuzzEulerList -fuzz FuzzEulerList -fuzztime 10s ./internal/tree/
	$(GO) test -run FuzzConvexHullSafeArea -fuzz FuzzConvexHullSafeArea -fuzztime 10s ./internal/tree/

# Property-based protocol checking (deterministic): a bounded random
# exploration of (tree, inputs, adversary) cells with per-round invariant
# evaluation, plus the fixed differential matrix under the race detector.
# Async-compatible cells additionally run through the event-driven runtime
# under every adversarial scheduler (-async-every). Any violation prints a
# shrunk one-line repro spec and fails the target.
prop:
	$(GO) test -race -count=1 -run 'Differential|Async' ./internal/check/
	$(GO) run ./cmd/check -budget 100 -seeds 1-3 -async-every 4

# Block-graph property gate: the graph machine/decomposition suites under the
# race detector (including the driver-equivalence and TCP differentials),
# then 525 generated graph-only cells — cycles, cliques, clique chains,
# cacti, random block graphs × the full clause pool — each checked for
# geodesic-hull validity, the graph agreement guarantee, per-block hull
# non-expansion and block-cut-tree prefix agreement. Violations shrink to a
# one-line repro (block pruning, cycle shortening) replayable with -repro.
graph-prop:
	$(GO) test -race -count=1 ./internal/graph/
	$(GO) test -race -count=1 -run Graph ./internal/check/ ./internal/session/
	$(GO) run ./cmd/check -budget 175 -seeds 1-3 -space graph

# Tier-1-adjacent gate: build + vet + tests, the race stress pass, a quick
# serve-bench cell (the serving layer under real closed-loop load,
# oracle-checked), then the property (tree and graph), short fuzz and
# async-soak passes.
check: build test stress bench-serve-smoke prop graph-prop fuzz-short async-soak

# One fast serve-bench cell as a smoke: small cluster, short window; fails
# on any oracle mismatch or client error.
.PHONY: bench-serve-smoke
bench-serve-smoke:
	$(GO) run ./cmd/serve-bench -cluster 3 -workers 16 -duration 2s

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/robotgathering
	$(GO) run ./examples/configtree
	$(GO) run ./examples/oracle
	$(GO) run ./examples/asynctree

# Regenerate the EXPERIMENTS.md measurements.
experiments:
	$(GO) run ./cmd/bench-rounds -sizes 64,256,1024,4096 -async -exact
	$(GO) run ./cmd/lowerbound
	$(GO) run ./cmd/adversary-eval

clean:
	rm -f cover.out test_output.txt bench_output.txt
