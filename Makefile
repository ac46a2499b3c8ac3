# make check mirrors .github/workflows/ci.yml exactly; CI calls these same
# targets so the two can't drift.
GO ?= go

# The root package carries the public-API frontend/future tests (64 clients
# over 8 sessions, crash resolution); internal/frontend has the pool-level
# drain/backpressure/ordering tests; torture/simdisk/checkpoint carry the
# crash-injection subsystem and its fault plane.
RACE_PKGS := . ./client/... ./internal/wire/... ./internal/frontend/... ./internal/recovery/... ./internal/sched/... ./internal/wal/... ./internal/txn/... ./internal/mvcc/... ./internal/engine/... ./internal/torture/... ./internal/simdisk/... ./internal/checkpoint/... ./internal/shard/... ./internal/health/... ./internal/harness/... ./cmd/pacman-router/...

.PHONY: check fmt vet build test race torture smoke bench bench-all docs

check: fmt vet build test race torture smoke bench docs

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# perfbench is a separate module compiled against the public API; the root
# module's ./... never sees it, so vet it explicitly.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# The crash-injection torture subsystem's CI entry point: the short fixed
# seed set per logging kind (one seed per kind crashing *during* Restart)
# plus the Future crash-semantics contract, raced. An oracle violation
# prints the failing seed and the armed fault plans; reproduce it with
# `go run ./cmd/pacman-bench -exp torture -seed <s> -iters 1`. The wide
# sweep hides behind `go test -run TestTortureLong -torture.long .`.
torture:
	$(GO) test -race -count=1 -run 'TestTortureShort|TestFutureCrashSemantics' -v .

# A tiny end-to-end run of the bench binary: logs a short smallbank run on
# two simulated devices and recovers it with every scheme through both the
# serial and pipelined reload paths, reports durable-commit latency
# percentiles from the frontend's futures, measures forward throughput +
# allocs/txn under CL/PL/LL (the throughput experiment), and drives the
# blueprint lifecycle through a crash -> Restart -> serve -> crash ->
# Restart round trip (CLR-P and PLR), plus the sharded-cluster benchmark
# (router + 2PC throughput scaling at 1/2/4 shards and the cross-shard
# ratio sweep, emitting BENCH_shard.json) and the mixed OLTP+snapshot-scan
# experiment (tps with/without a concurrent scanner, scan staleness in
# epochs, MVCC GC counters, emitting BENCH_mixed.json), and the
# gray-failure experiment (deadline-bounded traffic vs slow/hung devices,
# watchdog detection, gray torture oracle, emitting BENCH_gray.json), and
# the core-scaling matrix (per-core submission queues / sharded release /
# striped encode: tps + steals over a reduced 1/2/4-worker x 1/2-device
# matrix, emitting BENCH_scaling.json). Machine-readable
# BENCH_<experiment>.json results land in bench-results/; the
# TestBenchArtifactsPresent drift check runs right after and fails when
# any experiment listed here is missing its BENCH_<exp>.json (it skips on
# checkouts that never ran smoke — the directory is gitignored).
smoke:
	$(GO) run ./cmd/pacman-bench -exp reload,latency,throughput,mixed,restart,torture,net,shard,gray,scaling -duration 300ms -workers 2 -json bench-results
	$(GO) test -count=1 -run TestBenchArtifactsPresent .

# The documentation gate: the spec-first doc-drift test (wire constants vs
# docs/PROTOCOL.md's normative tables), the relative-link check over
# README/ROADMAP/docs, and every runnable Example (Launch, Restart,
# Frontend.Submit, client Dial) with its asserted output.
docs:
	$(GO) test -count=1 -run TestDocsProtocolDrift ./internal/wire/
	$(GO) test -count=1 -run TestDocsLinks .
	$(GO) test -count=1 -run Example . ./client/

# The commit-hot-path regression guard: the BenchmarkCommitLogged* micro
# benchmarks with allocation counts. The allocs/op columns are the contract
# — the execute->commit->encode->release pipeline stays at a handful of
# allocations per transaction (see README "Performance").
bench:
	$(GO) test -run='^$$' -bench=BenchmarkCommitLogged -benchmem -count=1 .

# The full experiment benchmark sweep (slow; not part of check).
bench-all:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...
