GO ?= go

# Packages with concurrency-sensitive code (the pipelined probe engine and
# everything layered on it, plus the event queue, the process engine, worm
# simulator, experiment drivers, telemetry, the route table, whose leaves
# are built and rows written on first read by whichever goroutine reads
# them and must equal an eagerly built copy, and the topology index, whose
# searches share pooled scratch across goroutines) get a dedicated
# race-detector lane. Under -race, sync.Pool drops pooled items on purpose,
# so the topology tests assert no allocation counts there.
RACE_PKGS = ./internal/simnet/... ./internal/mapper/... ./internal/connet/... \
	./internal/election/... ./internal/eventq/... ./internal/desim/... \
	./internal/wormsim/... ./internal/experiments/... ./internal/obs/... \
	./internal/mapd/... ./internal/workload/... ./internal/loadsim/... \
	./internal/place/... ./internal/routes/... ./internal/topology/...
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
#  2. Prober is the whole transport view. simnet declares exactly one prober
#     interface, Prober: a second is a transport-specific submit path or the
#     compatibility layer growing back. MaxPorts and Stats are on Prober, so
#     nothing in the module sniffs a prober for them with an anonymous
#     interface (a wrapper that embeds Prober inherits both, and a sniff
#     would silently miss them). genspec declares no Register, Lookup or
#     interface type: the generators are one table, and nothing outside it
#     registers one.
#  3. sanmapd's replies stay typed: map[string]any belongs to tests, and in
#     the serve path it is the per-query map and encoding/json reflection
#     growing back.
#  4. The Berkeley mapper keeps one run path: one function that reads a
#     topology.Network off a *Model (strict callers refuse its suspect
#     list), and none of the knobs and wrappers the second path hung from.
#     Every run is a Session: non-test internal/mapper calls newRun only
#     from NewSession and RestoreSession, and the retired entry points and
#     second configuration surface (RunConfig, RandomizedRun,
#     RandomizedConfig, BuildConfig) appear in no Go file as whole words.
#  5. Traffic keeps one generator with no source processes: the retired
#     sender, decoder and config stay deleted (the process-per-host replay
#     survives only as a test reference), and the one desim process
#     internal/workload starts is the mapper.
#  6. loadsim's per-worm path stays engine-local: the replay functions
#     (Run, start, scan, inject, finish) update no obs handle — replays run
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
#     non-test importer outside itself (cmd/, benchmark/ and the root
#     package count). go list skips testdata; analysistest is test support
#     by name, and internal/wormsim is the one dynamic oracle kept for tests
#     (hold-and-wait deadlocks that routes' static check is held against).
#  9. sanlint is two analyzers over object facts: determinism and hotpath.
#     The lock-order, goroutine, epochcheck and senterr analyzers (every
#     bug seeded against them failed tier-1 or the race lane), the package
#     facts, completion facts and field annotations only they used, and
#     the callgraph analyzer with its result passing stay deleted.
# 10. A desim process is an iter.Pull coroutine: internal/desim/desim.go
#     starts no goroutine and declares no channel (comments aside), so a
#     virtual-time wait never goes back to a goroutine hand-off.
# 11. Every package has tests except the four that are wiring or test
#     support: cmd/sanbench, cmd/sanmapd, internal/analysis and
#     internal/analysis/analysistest. A scenario is an Example with
#     // Output:, not a main package whose output nothing checks.
# 12. mapd has one durable write. Store.write (write a temp file, fsync,
#     rename, fsync the directory) makes both epoch commits and job files,
#     so it is the one os.Rename in non-test internal/mapd; the framed
#     append log it replaced (Truncate, Seek, encoding/binary) stays
#     deleted.
# 13. The durable text formats have one reader, internal/textrec: non-test
#     internal/mapper uses no bufio.Scanner, and the hand-rolled readers
#     it replaced (ckptReader, splitQuoted, epochParser) stay deleted.
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
	@sniff=$$(grep -rnE --include='*.go' 'interface *\{ *(MaxPorts\(\) int|Stats\(\))' . ; \
		grep -nE '^func (Register|Lookup)\(|^type [A-Za-z0-9_]+ interface' internal/genspec/*.go); \
	if [ -n "$$sniff" ]; then \
		echo "Prober is the whole transport view (MaxPorts and Stats are on it) and genspec a table, not a registry:"; \
		echo "$$sniff"; exit 1; fi
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
	@fork=$$(grep -rnwE --include='*.go' 'RunConfig|RandomizedRun|RandomizedConfig|BuildConfig' . ); \
	if [ -n "$$fork" ]; then \
		echo "a second way into a Berkeley run is growing back (map through NewSession, configure with options):"; \
		echo "$$fork"; exit 1; fi
	@callers=$$(for f in $(MAPPER_SRC); do sed 's://.*$$::' $$f | \
		awk '/^func /{fn=$$0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/[[(].*/, "", fn)} \
			/newRun\(/ && !/^func newRun\(/{print fn}'; done | sort | tr '\n' ' '); \
	if [ "$$callers" != "NewSession RestoreSession " ]; then \
		echo "newRun is called from: $$callers"; \
		echo "want exactly NewSession and RestoreSession (every Berkeley run is a Session)"; exit 1; fi
	@fork=$$(grep -rnE --include='*.go' --exclude=reference_replay_test.go \
		'SendWorm|ReadPlan|workload\.Config' . ; grep -n '^func Spawn(' $(WORKLOAD_SRC)); \
	if [ -n "$$fork" ]; then \
		echo "the second traffic generator is growing back:"; echo "$$fork"; exit 1; fi
	@n=$$(cat $(WORKLOAD_SRC) | grep -cE '\.Spawn(At)?\('); \
	if [ "$$n" -gt 1 ]; then \
		echo "internal/workload starts $$n desim processes, want one (the mapper; sources are Engine.At callbacks)"; exit 1; fi
	@slow=$$(awk '/^func \(e \*Engine\) (Run|start|scan|inject|finish)\(/,/^}/' internal/loadsim/loadsim.go | \
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
	orphans=$$(for p in $$($(GO) list ./internal/... | grep -vE '/internal/(analysis/analysistest|wormsim)$$'); do \
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
	@untested=$$(echo $$($(GO) list -f '{{if not (or .TestGoFiles .XTestGoFiles)}}{{.ImportPath}}{{end}}' ./...)); \
	want="sanmap/cmd/sanbench sanmap/cmd/sanmapd sanmap/internal/analysis sanmap/internal/analysis/analysistest"; \
	if [ "$$untested" != "$$want" ]; then \
		echo "packages without tests: $$untested"; \
		echo "want exactly: $$want (give the package a test or an Example with // Output:)"; exit 1; fi
	@n=$$(cat $(MAPD_SRC) | grep -c 'os\.Rename('); \
	log=$$(grep -nE 'Truncate\(|Seek\(|"encoding/binary"' $(MAPD_SRC)); \
	if [ "$$n" -ne 1 ] || [ -n "$$log" ]; then \
		echo "internal/mapd has $$n os.Rename call(s), want one (Store.write), and no append-log machinery:"; \
		echo "$$log"; exit 1; fi
	@fork=$$(grep -n 'bufio\.Scanner' $(MAPPER_SRC); \
		grep -rnE --include='*.go' 'ckptReader|splitQuoted|epochParser' . ); \
	if [ -n "$$fork" ]; then \
		echo "a second reader of the checkpoint or epoch format is growing back (read through internal/textrec):"; \
		echo "$$fork"; exit 1; fi

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
# real OS process — is killed right after every successive durable write
# (a job-file step or an epoch commit) and restarted onto the same state
# directory. The surviving committed epochs must be byte-identical to an
# uninterrupted daemon's (checkpoints included), the final heal must resume
# from its job file rather than start over, and no job file may outlive its
# epoch's commit. A daemon stopped after epoch 1 and restarted under chaos
# must heal to the same epoch 2 as well.
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
	$(GO) test -run ^$$ -fuzz FuzzParseEpoch -fuzztime=10s ./internal/mapd/
	$(GO) test -run ^$$ -fuzz FuzzParseProfile -fuzztime=10s ./internal/faults/
	$(GO) test -run ^$$ -fuzz FuzzRestoreSession -fuzztime=10s ./internal/mapper/
	$(GO) test -run ^$$ -fuzz FuzzReadTopology -fuzztime=10s ./internal/topology/
	$(GO) test -run ^$$ -fuzz FuzzDiameter -fuzztime=10s ./internal/topology/
	$(GO) test -run ^$$ -fuzz FuzzBuild -fuzztime=10s ./internal/genspec/
	$(GO) test -run ^$$ -fuzz FuzzRoundTrip -fuzztime=10s ./internal/textrec/

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
# costs), the Berkeley and Myricom maps of C+A+B (on allocs/op alone), the
# 1k-switch fat-tree (with its diameter at 0 allocs/op and at most 0.35x
# the per-source search it replaced; the map itself, serial and window-8,
# at a few thousand allocs/op), the daemon's cold start on the 768-host
# fat-tree (BuildFatTree768, MapFatTree768 with the daemon's options and
# ReadTopologyFatTree768, the snapshot's parse, each at a ceiling on
# allocs/op), its two start-up layers on the same fabric (Q+D, at a fixed
# handful of allocations, and the route table up to its up-only closure,
# under 7 MB written per build and at most 0.6x the table with every leaf
# built and every row written, and with one first lookup, which builds one
# leaf, at most 0.15x of it; plus the table's lookup and a whole served
# route query, each at 0 allocs/op),
# the load report's plan draw, merge and replays (on allocs/op alone), its
# replay in the
# blocked regime (internal/loadsim, beside the heap-driven replay it
# replaced) and its placement search (internal/place, beside the search it
# replaced) — and check them
# against the committed baseline's gates block. Fails on a >15% ns/op
# regression, an allocation ceiling broken, or a broken relative gate
# (window8 must stay within 2x the serial loop's wall clock, the election
# within 14x the master's, the saturated replay within 0.9x the replay it
# replaced, the placement search within 0.6x and the diameter within 0.35x
# the searches they replaced). Runs use -count so
# sanbench can gate on per-lane minima, the statistic that survives
# shared-runner noise.
BENCH_BASELINE ?= BENCH_a5c7565.json
bench-gate:
	@{ $(GO) test -bench PipelinedVsSerial -benchtime 100x -count 3 -run ^$$ . && \
	   $(GO) test -bench 'MapElectionC$$|MapMasterC$$' -benchtime 100x -count 3 -run ^$$ . && \
	   $(GO) test -bench 'MyricomCAB$$|MapMasterCAB$$' -benchtime 100x -count 3 -run ^$$ . && \
	   $(GO) test -bench 'LoadReplay|LoadReport|NewPlan|PlanMerge' -benchtime 100x -count 3 -run ^$$ . && \
	   $(GO) test -bench LoadReplaySaturated -benchtime 20x -count 3 -run ^$$ ./internal/loadsim && \
	   $(GO) test -bench PlaceOptimize -benchtime 20x -count 3 -run ^$$ ./internal/place && \
	   $(GO) test -bench 'BuildFatTree768|MapFatTree768|ReadTopologyFatTree768|DepthBoundFatTree768|RoutesComputeFatTree768|RoutesFirstLookupFatTree768|RoutesTableFatTree768|RouteLookup|ServeRoute' -benchtime 100x -count 3 -run ^$$ . && \
	   $(GO) test -bench 'MapFatTree1k|IndexDiameter1k$$|IndexDiameter1kReference$$' -benchtime 20x -count 3 -run ^$$ . ; } | \
		$(GO) run ./cmd/sanbench -gate $(BENCH_BASELINE)

# bench-baseline records a benchstat-compatible JSON baseline for the
# current revision: BENCH_<rev>.json, with duplicate -count measurements
# collapsed to minima and the bench_gates.json policy embedded (and
# self-checked — a run that breaks its own gates is not a valid baseline).
# The 1k-scale lanes run separately at 20x: one op is a full datacenter map.
# The saturated replay and placement search lanes live in internal/loadsim
# and internal/place, beside the reference replay and search they are gated
# against.
# Compare later with
#   go run ./cmd/sanbench -text BENCH_<rev>.json > old.txt && benchstat old.txt new.txt
REV := $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)
bench-baseline:
	@{ $(GO) test -bench . -skip 1k -benchtime 100x -count 5 -run ^$$ . && \
	   $(GO) test -bench 1k -benchtime 20x -count 3 -run ^$$ . && \
	   $(GO) test -bench LoadReplaySaturated -benchtime 20x -count 5 -run ^$$ ./internal/loadsim && \
	   $(GO) test -bench PlaceOptimize -benchtime 20x -count 5 -run ^$$ ./internal/place ; } | \
		$(GO) run ./cmd/sanbench -rev $(REV) -min -gates bench_gates.json -o BENCH_$(REV).json
	@echo wrote BENCH_$(REV).json

ci: build lint lint-json trace-smoke test race shuffle chaos crash-smoke load-smoke fuzz-smoke bench-smoke bench-gate bench-large
