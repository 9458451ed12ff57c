GO ?= go

# Packages with real concurrency (goroutines + sockets) that must stay
# race-clean; the rest of the tree is a single-threaded simulator. marsim
# rides along: its scenarios are single-threaded by design, and -race
# proves the hosted stack shares no state with leaked goroutines. simnet is
# in because it owns the free lists marsim's datapath recycles through, and
# receive-buffer poisoning is only on under -race.
RACE_PKGS = ./internal/wire/... ./internal/rpc/... ./internal/faults/... ./internal/overload/... ./internal/obs/... ./internal/simnet/... ./internal/marsim/... ./internal/adapt/... ./internal/offload/... ./internal/core/... ./internal/fec/...

# Per-fuzzer budget for the smoke pass wired into ci.
FUZZTIME ?= 10s

.PHONY: all ci fmt vet build test benchmark-check allocs guards race sim examples chaos overload fuzz bench-smoke bench bench-pair loc clean

all: ci

ci: fmt vet build test benchmark-check allocs guards race sim examples bench-smoke bench fuzz

# Fails when any file is not gofmt-clean (gofmt itself exits 0 either way).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# benchmark/ is a module of its own that calls this module's exported API,
# so `./...` above never compiles it: a change that deletes a name it uses
# fails here instead of at the acceptance driver.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The allocation pins, by name and without the race detector (which
# allocates on its own account): what one offloaded call (answered at once,
# or retried after an attempt timed out), one simulated
# datagram (delivered or dropped by a link), one link hop, one admission
# cycle, one delivered data frame, one NACK answered, one received batch, one trace record,
# one keyed Send transmitted on its caller and one request served on the
# goroutine that read it may cost in heap objects, what a
# trace record costs in heap bytes, and that hashing a trace allocates
# the same however long it is. They also
# run in `test`; this target is the list, and fails if one of them is
# renamed away.
ALLOC_PINS = TestSimCallAllocs|TestSimRejectedCallAllocs|TestDatagramPathZeroAlloc|TestLinkDropsRecycle|TestTracePacketLineZeroAlloc|TestTraceBytesPerEvent|TestTraceHashStreams|TestLinkForwardingZeroAlloc|TestAdmissionCycleZeroAlloc|TestPerPacketBookkeepingZeroAlloc|TestDeliverZeroAlloc|TestRecvLoopAllocRegression|TestSendInlineZeroAlloc|TestServeInlineZeroAlloc|TestSimRetriedCallAllocs|TestSocketReaderHeap
allocs:
	@out="$$($(GO) test -count=1 -v -run '^($(ALLOC_PINS))$$' ./internal/marsim/ ./internal/simnet/ ./internal/overload/ ./internal/wire/ ./internal/rpc/)"; rc=$$?; \
	echo "$$out" | grep -v '^=== '; [ $$rc -eq 0 ] || exit $$rc; \
	for t in $$(echo '$(ALLOC_PINS)' | tr '|' ' '); do echo "$$out" | grep -q -- "--- PASS: $$t " || { echo "allocation pin $$t did not run"; exit 1; }; done

# The invariants a tool checks rather than a reviewer, by name: no function
# and no struct field that only tests use (reach_test.go, guards_test.go,
# each proved non-vacuous on testdata/reach), every …Locked call under its
# lock, no wall-clock read in a package the simulator hosts, one RTT
# estimator, a wire conn core with no lock, clock, timer or socket and no
# map to walk, wire's goroutine, timer and write-path budget, and the
# serving path's (no goroutine or sync.Cond in overload, one slot goroutine
# site in rpc), and one timer per rpc call. They also run in `test`; this
# target is the list, and fails if one of them is renamed away.
GUARDS = TestExportedAPIIsReached|TestReachGuardFindsFixture|TestNoWriteOnlyFields|TestLockedCalledUnderLock|TestNoWallClockInSimHostedPackages|TestOneRTTEstimator|TestConnCoreIsPure|TestConnCoreWalksNoMap|TestWireGoroutineSites|TestServingPathConcurrency|TestOneTimerPerCall
guards:
	@out="$$($(GO) test -count=1 -v -run '^($(GUARDS))$$' . ./internal/wire/)"; rc=$$?; \
	echo "$$out" | grep -v '^=== '; [ $$rc -eq 0 ] || exit $$rc; \
	for t in $$(echo '$(GUARDS)' | tr '|' ' '); do echo "$$out" | grep -q -- "--- PASS: $$t " || { echo "guard $$t did not run"; exit 1; }; done

race:
	$(GO) test -race $(RACE_PKGS)

# The deterministic full-stack simulation suite: the 3-seed determinism
# matrix, the virtual-clock scenario acceptance runs, the 10-minute
# time-compressed soak smoke, and the fleet-tier city suite (its own
# 3-seed x 2-scenario determinism matrix, the 30k-endpoint conservation
# run, and the per-cell performance-anomaly property) and the rpc call
# engine's timing (hedge, attempt timeout, retry backoff), race-checked; then
# rpc's closed loop on a fat simulated link, whose server must answer at
# the rate it is asked and not at its start budget.
sim:
	$(GO) test -race -run 'TestDeterminismMatrix|TestSoakTimeCompression|TestHandoverScenario|TestCongestionScenario|TestPartitionResume|TestBudgetStagesSumToWallTime|TestMultipath|TestCityDeterminismMatrix|TestCityFleetConservation|TestCellPerformanceAnomaly|TestCityPlacementBeatsCloud|TestSessionResetSnapshot|TestSimCallEngineTiming' -v ./internal/marsim/
	$(GO) test -race -run 'TestServerAnswersAtArrivalRate|TestCallIsTwoDatagrams' -v ./internal/rpc/

# The examples that run on virtual time, end to end (seconds each): the
# build only compiles them, so each must also exit 0 and print the line its
# story ends on.
examples:
	@check() { out="$$($(GO) run ./examples/$$1)" && echo "$$out" | grep -Eq "$$2" || { \
		echo "examples/$$1 did not end its story (/$$2/):"; echo "$$out" | tail -5; return 1; }; echo "examples/$$1: ok"; }; \
	check quickstart '^metadata +delivered=100 ' && \
	check graceful_degradation '^metadata delivered ([0-9]+)/\1 ' && \
	check multipath_handover ' no stall$$' && \
	check d2d_privacy '^session total: [1-9][0-9]* delivered, [0-9]+ late \((9[0-9]|100)\.[0-9] % in time\)' && \
	check offload_pipeline '^on a smartphone over LTE, Glimpse holds the 75 ms budget best: [0-9.]+ % of frames$$'

# The full chaos acceptance storm (skipped under -short), race-checked.
chaos:
	$(GO) test -race -run TestChaosStormSuite -v ./internal/rpc/

# The overload acceptance storm: 4x over-capacity shedding plus the
# drain-and-failover pass (skipped under -short), race-checked.
overload:
	$(GO) test -race -run 'TestOverloadStorm|TestOverloadDrain' -v ./internal/rpc/

# One iteration of every hot-path benchmark: catches benchmarks that no
# longer compile or panic without paying for a full measurement run. The
# allocation bound on the disabled-tracing fast path is asserted by
# TestDisabledTracingAllocs in the regular test pass. The marbench studies
# run with every gate on, the city at smoke scale, into a directory that
# is thrown away; the shard study's smoke is TestShardStudySmoke.
bench-smoke:
	$(GO) test -bench . -benchtime 1x ./internal/obs/ ./internal/queue/ ./internal/wire/ ./internal/simnet/
	$(GO) test -run '^$$' -bench BenchmarkSimCall -benchtime 100x -benchmem ./internal/marsim/
	@d="$$(mktemp -d)"; $(GO) run ./cmd/marbench -out "$$d" -city-users 2000 -city-minutes 1 adapt multipath obsload city; rc=$$?; rm -rf "$$d"; exit $$rc

# The studies benchmark/ cannot express, each recorded as BENCH_<name>.json
# with the host, CPU count, GOMAXPROCS, Go version and commit it came from.
# marbench fails the run when a study's gate does not hold. (The offloaded
# call itself, end to end and per layer, is benchmark/'s: BENCHMARK.json.)
# BENCH_shards.json is the core-scaling curve: wire.Dial senders into a
# wire.ListenMuxShards server at 1/2/4/8 shards on real loopback sockets,
# a fixed packet count so diffs mean something on one host; 4 shards must
# deliver >= 2.5x 1 shard on a host with >= 4 CPUs, and on a smaller host
# no ratio is computed or printed.
# BENCH_adapt.json is the adaptive-degradation study: fully simulated, so
# its numbers are deterministic per seed and diff across commits anywhere.
# BENCH_multipath.json is the multipath robustness head-to-head
# (single-path vs failover vs multipath+FEC under burst loss and a
# mid-stream blackhole), equally deterministic per seed.
# BENCH_obs.json is the observability overhead study: the flight recorder
# must cost no allocation, no measurable disabled-path time, and under 2%
# of what a sealed frame costs on the wire.
# BENCH_city.json is the fleet-scale city provisioning study: a 100k-user,
# 10-virtual-minute city solved and replayed through the Section VI-F
# loop; the placement must hold >= 95% of deadlines, beat the cloud
# baseline, leak no queue entries, and finish under the wall-time ceiling.
bench:
	$(GO) run ./cmd/marbench -out . shards adapt multipath obsload city

# The paired run of benchmark/README.md's recipe, parent against this tree:
# BASE's committed files are exported under the git-ignored .bench_build/,
# both benchmark binaries are built once, every (workload, seed) pair runs
# back to back with the side that goes first alternating from one pair to
# the next, and -compare prints the verdicts (exit 1 on a regression). The
# exported tree is removed when the run ends, however it ends (a second copy
# of the sources doubles every grep over the checkout); the two binaries and
# the results stay until the next run or `make clean`.
#   make bench-pair BASE=HEAD~1 SEEDS="1 2 3 4 5 777" WORKLOADS="pipelined lockstep"
BASE ?= HEAD
SEEDS ?= 1 2 3 4 5 777
WORKLOADS ?= lockstep pipelined lossy storm simdrive
PAIR = .bench_build/pair
bench-pair:
	@set -e; rm -rf $(PAIR); mkdir -p $(PAIR)/base $(PAIR)/old $(PAIR)/new; \
	trap 'rm -rf $(PAIR)/base' EXIT; \
	git archive $(BASE) | tar -x -C $(PAIR)/base; \
	(cd $(PAIR)/base/benchmark && $(GO) build -o ../../old.bin .); \
	(cd benchmark && $(GO) build -o ../$(PAIR)/new.bin .); \
	n=0; for w in $(WORKLOADS); do for s in $(SEEDS); do \
		n=$$((n+1)); if [ $$((n%2)) -eq 1 ]; then order="old new"; else order="new old"; fi; \
		for side in $$order; do \
			echo "$$w seed $$s: $$side"; \
			$(PAIR)/$$side.bin -workload $$w -seed $$s -seconds 18 -trace 0 > $(PAIR)/$$side/$$w.$$s.json; \
		done; \
	done; done; \
	$(PAIR)/new.bin -compare '$(PAIR)/old/*.json' '$(PAIR)/new/*.json'

# Short coverage-guided smoke over the wire-format decoders, the policy
# header codec, the Reed-Solomon reconstructor, the flight-recorder
# snapshot codec, the shard demux ingest boundary, and two
# conn cores over a lossy, duplicating, reordering pipe. Go runs one fuzz
# target per invocation, so each gets its own budget.
fuzz:
	$(GO) test -fuzz FuzzHeaderDecode -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz FuzzNackDecode -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz FuzzPathFrameDecode -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz FuzzPathReassembler -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz FuzzShardDemux -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz FuzzConnStateMachine -fuzztime $(FUZZTIME) ./internal/wire/
	$(GO) test -fuzz FuzzPolicyDecode -fuzztime $(FUZZTIME) ./internal/adapt/
	$(GO) test -fuzz FuzzReconstruct -fuzztime $(FUZZTIME) ./internal/fec/
	$(GO) test -fuzz FuzzSnapshotDecode -fuzztime $(FUZZTIME) ./internal/obs/

# Go line counts, non-test and test, for each package directory outside
# benchmark/ (its own module) and in total: the figures ROADMAP.md and
# CHANGES.md quote. It prints; it is not a gate.
loc:
	@find . -path ./benchmark -prune -o -path './.*' -prune -o -name '*.go' -print | sort | xargs wc -l | \
	awk '$$2 == "total" { next } \
		{ d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\//, "", d); k = ($$2 ~ /_test\.go$$/) ? "test" : "src"; \
		  n[d, k] += $$1; all[k] += $$1; dirs[d] = 1 } \
		END { printf "%-32s %9s %9s\n", "package", "non-test", "test"; \
		      for (d in dirs) printf "%-32s %9d %9d\n", d, n[d, "src"], n[d, "test"] | "sort"; close("sort"); \
		      printf "%-32s %9d %9d\n", "total", all["src"], all["test"] }'

clean:
	$(GO) clean ./...
	rm -rf $(PAIR)
