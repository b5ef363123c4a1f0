GO ?= go

# Packages with concurrency-sensitive code (the pipelined probe engine and
# everything layered on it, plus the event queue, the process engine, worm
# simulator, experiment drivers, telemetry and the route table's parallel
# fill) get a dedicated race-detector lane.
RACE_PKGS = ./internal/simnet/... ./internal/mapper/... ./internal/connet/... \
	./internal/election/... ./internal/eventq/... ./internal/desim/... \
	./internal/wormsim/... ./internal/experiments/... ./internal/obs/... \
	./internal/mapd/... ./internal/workload/... ./internal/loadsim/... \
	./internal/place/... ./internal/routes/...
# cmd/sanload replays its three tables on concurrent goroutines, so it rides
# the race and shuffle lanes too — under -short, which keeps the 25 s
# TestScaleMillionWorms out of the race detector.
RACE_CMDS = ./cmd/sanload/...

.PHONY: build vet lint lint-json trace-smoke test race shuffle chaos crash-smoke load-smoke fuzz-smoke bench bench-smoke bench-gate bench-large bench-baseline ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs go vet plus the repo's own analyzers (cmd/sanlint: determinism
# and hotpath — see DESIGN.md §8 and §13), then checks that the tree is
# gofmt-clean and go.mod/go.sum are tidy.
#
# The one annotation the analyzers read:
#   //sanlint:hotpath        (func)  body must be allocation-free; exports the fact
#
# Surface checks, in the order they run:
#  1. The module has no external importers, so a deprecated symbol is
#     always deletable now rather than kept.
#  2. simnet declares exactly one prober interface, Prober: a second is a
#     transport-specific submit path or the compatibility layer growing back.
#  3. sanmapd's replies stay typed: map[string]any belongs to tests, and in
#     the serve path it is the per-query map and encoding/json reflection
#     growing back.
#  4. The Berkeley mapper keeps one run path: one function that reads a
#     topology.Network off a *Model (strict callers refuse its suspect
#     list), and none of the knobs and wrappers the second path hung from.
#  5. Traffic keeps one generator with no source processes: the retired
#     sender, decoder and config stay deleted (the process-per-host replay
#     survives only as a test reference), and the one desim process
#     internal/workload starts is the mapper.
#  6. loadsim's per-worm path stays engine-local: the replay functions
#     (Run, replay, scan, inject) update no obs handle — replays run
#     concurrently and registries are folded in afterwards — and the
#     package sorts nothing through sort.Slice's reflect swapper.
#  7. A probe window stays only a window, and Net.submit the only code that
#     bills a probe: the response cache no mapper could hit, the batch
#     submit path that measured no faster than a Submit loop, the option
#     function that switched the cache on, the Myricom prefetch no caller
#     enabled, simnet's side door for external transports (and the
#     wire-format package that used it), and the retry engine no program
#     switched on (backoff, route budget, timeout override, DoOne) stay
#     deleted (DESIGN.md §12). A miss is the answer, so Prober has no
#     Sleep for a backoff to wait with.
#  8. Nothing under internal/ lives only for its tests: every package has a
#     non-test importer outside itself (cmd/, examples/, benchmark/ and the
#     root package count). go list skips testdata; analysistest is
#     test support by name.
#  9. sanlint is two analyzers over object facts: determinism and hotpath.
#     The lock-order, goroutine, epochcheck and senterr analyzers (every
#     bug seeded against them failed tier-1 or the race lane), the package
#     facts, completion facts and field annotations only they used, and
#     the callgraph analyzer with its result passing stay deleted.
# 10. A desim process is an iter.Pull coroutine: internal/desim/desim.go
#     starts no goroutine and declares no channel (comments aside), so a
#     virtual-time wait never goes back to a goroutine hand-off.
MAPD_SRC = $(filter-out %_test.go,$(wildcard internal/mapd/*.go))
MAPPER_SRC = $(filter-out %_test.go,$(wildcard internal/mapper/*.go))
WORKLOAD_SRC = $(filter-out %_test.go,$(wildcard internal/workload/*.go))
LOADSIM_SRC = $(filter-out %_test.go,$(wildcard internal/loadsim/*.go))
lint: vet
	$(GO) run ./cmd/sanlint ./...
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then \
		echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	$(GO) mod tidy -diff
	@dep=$$(grep -rl --include='*.go' --exclude='*_test.go' '// Deprecated:' internal cmd); \
	if [ -n "$$dep" ]; then \
		echo "deprecated symbols must be deleted, not kept:"; echo "$$dep"; exit 1; fi
	@n=$$(cat internal/simnet/*.go | grep -cE '^type ([A-Za-z][A-Za-z0-9]*)?Prober interface'); \
	if [ "$$n" -ne 1 ]; then \
		echo "simnet declares $$n prober interfaces, want exactly one (Prober)"; exit 1; fi
	@untyped=$$(grep -nE 'map\[string\](any|interface *\{)' $(MAPD_SRC)); \
	if [ -n "$$untyped" ]; then \
		echo "untyped reply maps in sanmapd's serve path (append typed replies instead):"; \
		echo "$$untyped"; exit 1; fi
	@n=$$(cat $(MAPPER_SRC) | grep -c '^func export'); \
	if [ "$$n" -gt 1 ]; then \
		echo "internal/mapper declares $$n exporters, want one (strict callers check its suspect list)"; exit 1; fi
	@fork=$$(grep -rnE --include='*.go' --exclude=export_oracle_test.go \
		'SelfHeal|SkipKnownSlots|RunResult|exportTolerant' . ); \
	if [ -n "$$fork" ]; then \
		echo "the second Berkeley run path is growing back:"; echo "$$fork"; exit 1; fi
	@fork=$$(grep -rnE --include='*.go' --exclude=reference_replay_test.go \
		'SendWorm|ReadPlan|workload\.Config' . ; grep -n '^func Spawn(' $(WORKLOAD_SRC)); \
	if [ -n "$$fork" ]; then \
		echo "the second traffic generator is growing back:"; echo "$$fork"; exit 1; fi
	@n=$$(cat $(WORKLOAD_SRC) | grep -cE '\.Spawn(At)?\('); \
	if [ "$$n" -gt 1 ]; then \
		echo "internal/workload starts $$n desim processes, want one (the mapper; sources are Engine.At callbacks)"; exit 1; fi
	@slow=$$(awk '/^func \(e \*Engine\) (Run|replay|scan|inject)\(/,/^}/' internal/loadsim/loadsim.go | \
		grep -n 'e\.m\.'; grep -n 'sort\.Slice' $(LOADSIM_SRC)); \
	if [ -n "$$slow" ]; then \
		echo "per-worm overhead is back in loadsim's replay path (mirror after the loop, slices.Sort):"; \
		echo "$$slow"; exit 1; fi
	@fork=$$(grep -rnE --include='*.go' \
		'BatchProber|SubmitBatch|EvalBatch|submitKeyed|cacheEntry|WithPipelineConfig|prefetchExplore|AccountProbe|TransitTime|WireProber|WireNet|amlayer|RouteBudget|BackoffCap|BudgetDenied|BackoffWait|jitterSeq|withTimeout|DoOne' . ); \
	if [ -n "$$fork" ]; then \
		echo "a second way into a transport or to bill a probe, or the window's response cache or retry engine, is growing back:"; \
		echo "$$fork"; exit 1; fi
	@sleep=$$(awk '/^type Prober interface/,/^}/' internal/simnet/*.go | grep -n 'Sleep'); \
	if [ -n "$$sleep" ]; then \
		echo "simnet.Prober declares Sleep again (a miss is the answer; nothing backs off):"; \
		echo "$$sleep"; exit 1; fi
	@used=" $$($(GO) list -f '{{join .Imports " "}}' ./... | tr '\n' ' ') "; \
	orphans=$$(for p in $$($(GO) list ./internal/... | grep -v '/internal/analysis/analysistest$$'); do \
		case "$$used" in *" $$p "*) ;; *) echo "$$p";; esac; done); \
	if [ -n "$$orphans" ]; then \
		echo "internal packages no non-test code imports (delete them, or give them a caller):"; \
		echo "$$orphans"; exit 1; fi
	@fork=$$(ls -d internal/analysis/goroutine internal/analysis/epochcheck \
		internal/analysis/senterr internal/analysis/callgraph 2>/dev/null; \
		grep -rnE --include='*.go' \
		'lockcheck|AcquiresFact|LockOrderFact|PackageFact|DaemonFact|FuncIsDaemon|sanlint:daemon|internal/analysis/(goroutine|epochcheck|senterr|callgraph)|CompletesFact|FieldHasAnnotation|ResultOf|sanlint:epoch|sanlint:topostate' . ); \
	if [ -n "$$fork" ]; then \
		echo "sanlint is two analyzers (determinism, hotpath); a deleted analyzer, its facts or its annotations are growing back:"; \
		echo "$$fork"; exit 1; fi
	@handoff=$$(sed 's://.*$$::' internal/desim/desim.go | grep -nE '(^|[^[:alnum:]_.])go[[:space:]]|\<chan\>'); \
	if [ -n "$$handoff" ]; then \
		echo "internal/desim/desim.go hands control over a goroutine or a channel again (a process is an iter.Pull coroutine):"; \
		echo "$$handoff"; exit 1; fi

# trace-smoke is the golden-trace lane: a chaos run on a pinned seed must
# emit a Chrome trace sidecar byte-identical to the checked-in fixture
# (see OBSERVABILITY.md). Catches nondeterminism anywhere in the mapper,
# fault or telemetry stack. Regenerate the fixture after an intentional
# change with:
#   $(GO) run ./cmd/sanmap -gen now-c -chaos seed=3 -trace cmd/sanmap/testdata/trace-chaos-seed3.json
# lint-json archives the full finding set (normally empty) as a stable JSON
# artifact so CI can diff lint output between commits.
lint-json:
	$(GO) run ./cmd/sanlint -json ./... > sanlint-findings.json || \
		{ cat sanlint-findings.json; exit 1; }
	@echo wrote sanlint-findings.json

trace-smoke:
	@tmp=$$(mktemp); \
	$(GO) run ./cmd/sanmap -gen now-c -chaos seed=3 -trace $$tmp > /dev/null && \
	diff -u cmd/sanmap/testdata/trace-chaos-seed3.json $$tmp && \
	echo "trace-smoke: golden chaos trace is byte-identical"; \
	status=$$?; rm -f $$tmp; exit $$status

test:
	$(GO) test ./...

race:
	$(GO) vet ./...
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -short $(RACE_CMDS)

# shuffle reruns the concurrency-sensitive packages three times in random
# test order: a test that leans on another's leftovers, or on winning a
# start-up race, fails here instead of at the next re-anchor.
shuffle:
	$(GO) test -shuffle=on -count=3 $(RACE_PKGS)
	$(GO) test -shuffle=on -count=3 -short $(RACE_CMDS)

# chaos is the golden-seed fault-injection lane: deterministic schedules,
# byte-reproducible logs, self-healing remaps checked against the surviving
# core (see DESIGN.md §9). Every test here pins fixed seeds, so a failure is
# a real regression, never flake.
chaos:
	$(GO) test -run 'Chaos|Fault|Heal|Remap|Crash|Injector|Classify|LinkFilter' \
		./internal/faults/... ./internal/mapper/... ./internal/simnet/... \
		./internal/wormsim/... ./internal/election/... ./internal/experiments/...

# crash-smoke is the kill/restart lane (DESIGN.md §14): sanmapd — run as a
# real OS process — is killed at every successive WAL append and restarted
# onto the same state directory. The surviving committed epochs must be
# byte-identical to an uninterrupted daemon's (checkpoints included), the
# final heal must resume from its WAL rather than start over, and no WAL
# may outlive its epoch's commit.
crash-smoke:
	$(GO) test -count=1 -v -run 'TestCrashRestart' ./internal/mapd/

# load-smoke is the golden-seed traffic lane (WORKLOADS.md): the default
# sanload run — seeded plan, replay, cut, stale table, remap, healed replay,
# placement — must reproduce the checked-in report byte for byte. Catches
# nondeterminism anywhere in the workload/loadsim/place stack. Regenerate
# after an intentional change with:
#   $(GO) run ./cmd/sanload > cmd/sanload/testdata/load-smoke.txt
load-smoke:
	$(GO) test -count=1 -v -run 'TestLoadSmokeGolden' ./cmd/sanload/

# fuzz-smoke gives every native fuzz target a short run (ROADMAP item 3b):
# long enough to replay the seed corpus and mutate past the obvious
# inputs, short enough for every CI run.
fuzz-smoke:
	$(GO) test -run ^$$ -fuzz FuzzParseRoute -fuzztime=10s ./internal/simnet/
	$(GO) test -run ^$$ -fuzz FuzzDecodeRequest -fuzztime=10s ./internal/mapd/
	$(GO) test -run ^$$ -fuzz FuzzAppendString -fuzztime=10s ./internal/mapd/
	$(GO) test -run ^$$ -fuzz FuzzParseProfile -fuzztime=10s ./internal/faults/

bench:
	$(GO) test -bench . -benchtime 1x -run ^$$ .

# bench-smoke runs every benchmark once and pushes the output through the
# sanbench parser — catching benchmarks that panic, b.Fatal, or emit
# malformed measurement lines, without paying for steady-state timing.
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run ^$$ . | $(GO) run ./cmd/sanbench > /dev/null

# bench-large is the datacenter-scale lane (DESIGN.md §11): the 1004-switch
# fat-tree must map inside the 10-second wall-clock gate and re-render
# byte-identically (TestMapFatTree1k), the CSR traversals must stay
# allocation-free (TestIndexZeroAlloc), and the fattree-1k benchmark runs
# once through the sanbench parser so the lane lands in recorded baselines.
bench-large:
	$(GO) test -run TestMapFatTree1k -v ./internal/mapper/
	$(GO) test -run TestIndexZeroAlloc ./internal/topology/
	$(GO) test -bench 'FatTree1k|Index.*1k' -benchtime 1x -run ^$$ . | \
		$(GO) run ./cmd/sanbench > /dev/null

# bench-gate is the wall-clock regression gate (DESIGN.md §12): re-measure
# the gated lanes — the window-8 probe pipeline, the election on subcluster
# C beside the single master on the same fabric (what the desim engine
# costs), the 1k-switch fat-tree (with its diameter at 0 allocs/op), the
# daemon's two start-up layers on the 768-host fat-tree (Q+D and the route
# table, plus the table's lookup and a whole served route query, each at
# 0 allocs/op), and the load report's plan draw, merge and replays (on
# allocs/op alone) — and check them against the committed baseline's gates
# block. Fails on a >15% ns/op regression, an allocation ceiling broken, or
# a broken relative gate (window8 must stay within 2x the serial loop's
# wall clock, the election within 14x the master's). Runs use -count so
# sanbench can gate on per-lane minima, the statistic that survives
# shared-runner noise.
BENCH_BASELINE ?= BENCH_a5c7565.json
bench-gate:
	@{ $(GO) test -bench PipelinedVsSerial -benchtime 100x -count 3 -run ^$$ . && \
	   $(GO) test -bench 'MapElectionC$$|MapMasterC$$' -benchtime 100x -count 3 -run ^$$ . && \
	   $(GO) test -bench 'LoadReplay|LoadReport|NewPlan|PlanMerge' -benchtime 100x -count 3 -run ^$$ . && \
	   $(GO) test -bench 'FatTree768|RouteLookup|ServeRoute' -benchtime 100x -count 3 -run ^$$ . && \
	   $(GO) test -bench 'MapFatTree1k|IndexDiameter1k' -benchtime 20x -count 3 -run ^$$ . ; } | \
		$(GO) run ./cmd/sanbench -gate $(BENCH_BASELINE)

# bench-baseline records a benchstat-compatible JSON baseline for the
# current revision: BENCH_<rev>.json, with duplicate -count measurements
# collapsed to minima and the bench_gates.json policy embedded (and
# self-checked — a run that breaks its own gates is not a valid baseline).
# The 1k-scale lanes run separately at 20x: one op is a full datacenter map.
# Compare later with
#   go run ./cmd/sanbench -text BENCH_<rev>.json > old.txt && benchstat old.txt new.txt
REV := $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)
bench-baseline:
	@{ $(GO) test -bench . -skip 1k -benchtime 100x -count 5 -run ^$$ . && \
	   $(GO) test -bench 1k -benchtime 20x -count 3 -run ^$$ . ; } | \
		$(GO) run ./cmd/sanbench -rev $(REV) -min -gates bench_gates.json -o BENCH_$(REV).json
	@echo wrote BENCH_$(REV).json

ci: build lint lint-json trace-smoke test race shuffle chaos crash-smoke load-smoke fuzz-smoke bench-smoke bench-gate bench-large
