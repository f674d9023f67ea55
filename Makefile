# certchains build targets.

GO ?= go

.PHONY: all build vet lint test race bench bench-check bench-ratchet fuzz report experiments ingest-smoke obs-smoke dist-smoke serve-smoke chaos clean

all: build vet lint test

build:
	$(GO) build ./...

# Static analysis: go vet plus certchain-vet, the project-invariant suite
# (determinism, merge/snapshot completeness, resilience conventions, hot-path
# allocations, lock discipline). Suppressions live in .certchain-vet.json
# (reason required per entry; stale entries fail). The JSON artifact is what
# CI uploads.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/certchain-vet -artifact vet-report.json .

# Lint: the vet suite and — when installed — staticcheck and govulncheck.
# The external tools are gated on `command -v` so offline checkouts still
# lint; CI installs both.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo staticcheck ./...; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo govulncheck ./...; govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; \
	fi

test:
	$(GO) test ./...

# Full suite under the race detector — exercises the sharded pipeline, the
# classifier/registry locks, and the detector's verdict cache concurrently.
race:
	$(GO) test -race ./...

# End-to-end smoke over the streaming ingest daemon: the batch-equivalence
# suite, the in-process daemon lifecycle, and the process-level SIGINT tests
# (real binaries, real signals, final snapshot on disk).
ingest-smoke:
	$(GO) test -count=1 -run 'TestIngestorMatchesBatch|TestDaemonGracefulShutdown' ./internal/ingest/
	$(GO) test -count=1 -run 'TestSignalShutdownWritesSnapshot' ./cmd/certchain-ingestd/
	$(GO) test -count=1 -run 'TestServeShutsDownOnInterrupt' ./cmd/ctlog/

# Observability smoke: a real certchain-analyze run's -trace and -manifest
# artifacts validate (one span set per declared stage, manifest schema),
# the manifest's deterministic subset is byte-identical across seeds ×
# worker widths, and every serving binary's /metrics passes the
# exposition-format conformance checker.
obs-smoke:
	$(GO) test -count=1 -run 'TestObsArtifactsSmoke' ./cmd/certchain-analyze/
	$(GO) test -count=1 -run 'TestManifestSubsetEquivalence' ./internal/analysis/
	$(GO) test -count=1 -run 'TestServeMuxAdminEndpoints' ./cmd/ctlog/
	$(GO) test -count=1 -run 'TestStatsPrometheusConformance|TestFillEscapesHostileLabels' ./internal/ingest/

# Distributed topology smoke: the three-rung equivalence claim — one
# sequential pass, N goroutines in one process, N worker processes — is
# byte-identical on text report, JSON export, and manifest deterministic
# subset; then the real-binary rung (3 certchain-shardd + certchain-coord vs
# the single-process -local run), including the chaos run that SIGKILLs a
# worker mid-partition and still demands identical bytes. The trace tests
# cover the cross-process spliced Chrome trace: worker span sets ride the
# partial snapshots, stale-run spans are fenced out, and the real-binary run
# emits one artifact with coordinator + every worker's tracks.
dist-smoke:
	$(GO) test -count=1 -run 'TestDistTopologyEquivalence|TestCoordWorkerDeathRequeue|TestCoordDuplicateCompletion|TestDistSplicedTrace|TestDistStaleTraceNotSpliced|TestRunLocalTrace' ./internal/dist/
	$(GO) test -count=1 -run 'TestDistProcessEquivalence|TestDistProcessTrace|TestDistChaosKillWorker' ./cmd/certchain-coord/

# Serving-telemetry smoke: the shared HTTP middleware's metric families and
# deterministic access logs (including concurrent scrapes), the quantile
# estimator, and the BENCH_serve schema validator; then a short real
# serve-bench run — its fresh output AND the committed baseline must both
# pass obs-check.
serve-smoke:
	$(GO) test -count=1 -run 'TestMiddleware|TestParseRoutes|TestSeriesQuantile|TestValidateServeBench' ./internal/obs/
	$(GO) run ./cmd/serve-bench -duration 1s -out /tmp/BENCH_serve_smoke.json
	$(GO) run ./cmd/obs-check -serve-bench /tmp/BENCH_serve_smoke.json
	$(GO) run ./cmd/obs-check -serve-bench BENCH_serve.json

# Chaos suite: every fault-injection matrix under the race detector —
# scanner dial faults, ctlog HTTP faults, middlebox upstream timeout/retry,
# zeek tailer file faults (including the fault-plan fuzzer's corpus), and
# the ingest chaos-equivalence suite (faulted runs byte-identical to
# fault-free at every worker width) — plus a coverage ratchet on the
# resilience layer itself. The floor only moves up.
RESILIENCE_COVER_FLOOR = 90
chaos:
	$(GO) test -race -count=1 ./internal/resilience/
	$(GO) test -race -count=1 -run 'TestScanChaos|TestScanAllChaos' ./internal/scanner/
	$(GO) test -race -count=1 -run 'TestCTLog' ./internal/ctlog/
	$(GO) test -race -count=1 -run 'TestProxyUpstream' ./internal/middlebox/
	$(GO) test -race -count=1 -run 'TestTailer|FuzzTailerWithFaults' ./internal/zeek/
	$(GO) test -race -count=1 -run 'TestIngestChaosEquivalence|TestIngestSnapshotWriteRetry|TestDaemonChaosE2E' ./internal/ingest/
	@cov=$$($(GO) test -count=1 -cover ./internal/resilience/ | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*'); \
	echo "internal/resilience coverage: $$cov% (floor $(RESILIENCE_COVER_FLOOR)%)"; \
	awk -v c="$$cov" -v f="$(RESILIENCE_COVER_FLOOR)" 'BEGIN { exit (c+0 >= f) ? 0 : 1 }' \
		|| { echo "coverage ratchet failed: $$cov% < $(RESILIENCE_COVER_FLOOR)%"; exit 1; }

# One benchmark per paper table/figure plus ablations (bench_test.go), then
# the span-driven per-stage pipeline baseline (ns/op, records/sec, and
# allocs/op per stage at workers 1 and GOMAXPROCS), then the serving-path
# baseline (p50/p95/p99 latency and QPS for /report under concurrent load
# while ingest runs).
bench:
	$(GO) test -bench=. -benchmem .
	$(GO) run ./cmd/pipeline-bench -out BENCH_pipeline.json
	$(GO) run ./cmd/serve-bench -out BENCH_serve.json

# The benchmark (certbench/) is its own module, so the root `go test ./...`
# never compiles it; vet and short-test it against the checkout's analysis
# API so an API change that breaks the benchmark fails here, not at run time.
bench-check:
	cd certbench && $(GO) vet ./... && $(GO) test -short ./...

# CI gate on pipeline performance: replay the benchmark harness with the
# committed baseline's parameters and fail on >10% observe records/sec
# regression or any stage's allocs_per_op growing past a small jitter
# allowance. After an intentional optimization, regenerate the baseline with
# `go run ./cmd/pipeline-bench -out BENCH_pipeline.json` and commit it.
bench-ratchet:
	$(GO) run ./cmd/bench-ratchet -baseline BENCH_pipeline.json

# Short fuzz pass over the parsers, the block-boundary decode and load
# properties (the decode fuzzers choose the block size too), and the
# shard-merge property (longer runs: increase -fuzztime).
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 30s ./internal/dn/
	$(GO) test -fuzz FuzzFieldRoundTrip -fuzztime 20s ./internal/zeek/
	$(GO) test -fuzz FuzzReader -fuzztime 20s ./internal/zeek/
	$(GO) test -fuzz FuzzJSONReader -fuzztime 20s ./internal/zeek/
	$(GO) test -fuzz FuzzTailerWithFaults -fuzztime 30s ./internal/zeek/
	$(GO) test -fuzz FuzzTSVDecodeEquivalence -fuzztime 30s ./internal/zeek/
	$(GO) test -fuzz FuzzJSONDecodeEquivalence -fuzztime 30s ./internal/zeek/
	$(GO) test -fuzz FuzzLoadBlocks -fuzztime 30s -fuzzminimizetime 5s ./internal/zeek/
	$(GO) test -fuzz FuzzShardMerge -fuzztime 30s ./internal/analysis/
	$(GO) test -fuzz FuzzRegistryMerge -fuzztime 20s ./internal/obs/
	$(GO) test -fuzz FuzzLintChain -fuzztime 30s ./internal/lint/
	$(GO) test -fuzz FuzzPartialSnapshotDecode -fuzztime 20s ./internal/analysis/

# The full paper report with paper-vs-measured verification.
report:
	$(GO) run ./cmd/certchain-analyze -scale 0.01 -verify

# Regenerate the artifacts EXPERIMENTS.md records.
experiments:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	rm -f test_output.txt bench_output.txt vet-report.json
