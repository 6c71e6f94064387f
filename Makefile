# Development targets for the SIMTY-Go reproduction.
#
#   make verify   — the full pre-merge gate: vet, build, race tests,
#                   a repeated race pass over the parallel-harness
#                   paths, a short fuzz smoke over the input parsers,
#                   a kill-a-worker pass over the multi-process shard
#                   supervisor (crash/hang/poison/resume), the
#                   per-package coverage floor, a single-shot
#                   pass over the queue microbenchmarks (smoke, not
#                   measurement), and vet + race tests of the nested
#                   perfbench module (its own go.mod, so ./... skips
#                   it).
#   make test     — tier-1 tests only (what CI must keep green).
#   make cover    — per-package coverage with a floor on the core
#                   packages (internal/alarm, internal/sim,
#                   internal/fleet must each stay ≥ $(COVERMIN)%).
#   make fuzz     — the fuzz targets, longer budget.
#   make bench    — the kernel + queue microbenchmarks, measured, then
#                   gated against bench/baseline.txt (>10% regression in
#                   ns/op or allocs/op on any kernel benchmark fails).
#   make bench-baseline — re-measure and overwrite the stored baseline
#                   (run on the reference machine after an intentional
#                   perf change, and commit the result).
#   make serve    — build and run the wakesimd HTTP service locally.
#   make docker   — build the wakesimd service image.
#
# CI runs `make verify` on every push and pull request
# (.github/workflows/ci.yml).

GO ?= go

.PHONY: verify test cover fuzz bench bench-gate bench-baseline vet build serve docker

# Kernel benchmark selection shared by bench, bench-baseline, and the
# verify smoke; BENCHCOUNT repetitions feed benchgate's median. The
# backend benchmarks (histogram fold + server-queue replay: the fleet
# aggregation hot path when the herd model is on) ride the same gate.
KERNELBENCH = ./internal/simclock/ -run '^$$' -bench '^BenchmarkKernel' -benchmem
BACKENDBENCH = ./internal/backend/ -run '^$$' -bench '^BenchmarkBackend' -benchmem
# Shard-aggregate serialization (the multi-process supervisor's wire
# format: framed encode, and decode with validation).
SHARDBENCH = ./internal/fleet/ -run '^$$' -bench '^Benchmark(EncodeShard|DecodeShard)$$' -benchmem
BENCHCOUNT ?= 10

# Fuzz budget per target in the verify smoke (Go runs one fuzz target
# per invocation, hence the per-target lines).
FUZZTIME ?= 10s

# Coverage floor (percent) for the core packages.
COVERMIN ?= 70
COVERPKGS = ./internal/alarm/ ./internal/sim/ ./internal/fleet/ ./internal/backend/ ./internal/shardexec/ ./internal/metrics/ ./internal/runstore/ ./internal/httpapi/ ./internal/tournament/

verify: vet build
	$(GO) test -race ./...
	$(GO) test -race -count=2 -run 'RunAll|RunTrials|CompareTrials|Sweep|GoldenRecordParity|Fleet|Concurrent|Drain|SSE|Daemon|PooledMatchesUnpooled|NoTraceParity|Backend|Herd|Readyz|Heartbeat|Shard|Checkpoint|Manifest|MultiProcess|Scoreboard|Tournament|PerceptibleGuarantee' ./internal/simclock/ ./internal/sim/ ./internal/fleet/ ./internal/runstore/ ./internal/httpapi/ ./internal/backend/ ./internal/shardexec/ ./internal/tournament/ ./cmd/wakesimd/ ./cmd/wakesim/ .
	$(GO) test ./internal/apps/ -run '^$$' -fuzz '^FuzzSpecJSON$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/alarm/ -run '^$$' -fuzz '^FuzzQueueOps$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fleet/ -run '^$$' -fuzz '^FuzzFleetSpec$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/fleet/ -run '^$$' -fuzz '^FuzzDecodeShard$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/simclock/ -run '^$$' -fuzz '^FuzzClockPool$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/shardexec/ -run '^$$' -fuzz '^FuzzManifestJSON$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/shardexec/ -run '^$$' -fuzz '^FuzzLoadCheckpoint$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tournament/ -run '^$$' -fuzz '^FuzzTournamentSpec$$' -fuzztime $(FUZZTIME)
	$(GO) test -count=1 -run 'TestRunSurvivesTransientFaults|TestRunQuarantinesPoisonShard|TestRunKillsHungWorker|TestCheckpointResumeRunsOnlyMissingShards' ./internal/shardexec/
	$(MAKE) cover
	cd perfbench && $(GO) vet . && $(GO) test -race .
	$(GO) test ./internal/alarm/ -run '^$$' -bench 'Queue(Insert|Find|PopDue|Realign)' -benchtime=1x -short -timeout 10m
	$(GO) test -race $(KERNELBENCH) -benchtime=1x -timeout 10m
	$(GO) test -race $(BACKENDBENCH) -benchtime=1x -timeout 10m
	$(GO) test -race $(SHARDBENCH) -benchtime=1x -timeout 10m

# cover fails if any core package's statement coverage drops below the
# floor; the awk exit carries the verdict so the gate works without any
# extra tooling.
cover:
	@for pkg in $(COVERPKGS); do \
		line=$$($(GO) test -cover $$pkg | tail -1); \
		echo "$$line"; \
		echo "$$line" | awk -v min=$(COVERMIN) -v pkg=$$pkg \
			'{ ok = 0; for (i = 1; i <= NF; i++) if ($$i ~ /^[0-9.]+%$$/) { ok = 1; pct = $$i; sub(/%/, "", pct); \
			   if (pct + 0 < min) { printf "coverage gate: %s at %s%% is below the %s%% floor\n", pkg, pct, min; exit 1 } } \
			   if (!ok) { printf "coverage gate: no coverage figure for %s\n", pkg; exit 1 } }' || exit 1; \
	done

fuzz:
	$(GO) test ./internal/apps/ -run '^$$' -fuzz '^FuzzSpecJSON$$' -fuzztime 2m
	$(GO) test ./internal/alarm/ -run '^$$' -fuzz '^FuzzQueueOps$$' -fuzztime 2m
	$(GO) test ./internal/fleet/ -run '^$$' -fuzz '^FuzzFleetSpec$$' -fuzztime 2m
	$(GO) test ./internal/fleet/ -run '^$$' -fuzz '^FuzzDecodeShard$$' -fuzztime 2m
	$(GO) test ./internal/simclock/ -run '^$$' -fuzz '^FuzzClockPool$$' -fuzztime 2m
	$(GO) test ./internal/shardexec/ -run '^$$' -fuzz '^FuzzManifestJSON$$' -fuzztime 2m
	$(GO) test ./internal/shardexec/ -run '^$$' -fuzz '^FuzzLoadCheckpoint$$' -fuzztime 2m
	$(GO) test ./internal/tournament/ -run '^$$' -fuzz '^FuzzTournamentSpec$$' -fuzztime 2m

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) build ./... && $(GO) test ./...

# bench-gate measures the kernel benchmarks and gates them against the
# stored baseline — the CI perf floor.
bench-gate:
	$(GO) test $(KERNELBENCH) -count=$(BENCHCOUNT) -timeout 30m | tee bench/current.txt
	$(GO) test $(BACKENDBENCH) -count=$(BENCHCOUNT) -timeout 30m | tee -a bench/current.txt
	$(GO) test $(SHARDBENCH) -count=$(BENCHCOUNT) -timeout 30m | tee -a bench/current.txt
	$(GO) run ./cmd/benchgate -baseline bench/baseline.txt bench/current.txt

# bench runs the gate plus the queue scaling benchmarks (informational,
# not gated — their cost is dominated by setup shape, not the kernel).
bench: bench-gate
	$(GO) test ./internal/alarm/ -run '^$$' -bench 'Queue(Insert|Find|PopDue|Realign)' -benchtime=100x -timeout 30m

# bench-baseline overwrites the committed perf floor. Only run it for an
# intentional, reviewed performance change.
bench-baseline:
	$(GO) test $(KERNELBENCH) -count=$(BENCHCOUNT) -timeout 30m | tee bench/baseline.txt
	$(GO) test $(BACKENDBENCH) -count=$(BENCHCOUNT) -timeout 30m | tee -a bench/baseline.txt
	$(GO) test $(SHARDBENCH) -count=$(BENCHCOUNT) -timeout 30m | tee -a bench/baseline.txt

ADDR ?= :8080

serve:
	$(GO) run ./cmd/wakesimd -addr $(ADDR)

docker:
	docker build -t wakesimd .
