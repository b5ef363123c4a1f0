// Package obs is the repo's unified observability layer: one span tracer
// and one metrics registry that every subsystem instruments against,
// instead of the bespoke counters and ad-hoc log hooks that grew alongside
// the mapper, the probe window, the fault injector and the election mode.
// The paper's own evaluation is instrumentation-driven — Fig 8 records the
// model graph "after a frontier switch was explored", §6 compares probe
// counts and mapping latencies — and this package is where those numbers
// come from.
//
// # Virtual time only
//
// Everything in this package is keyed to the simulation's virtual clock
// (time.Duration offsets from the start of a run), never the wall clock.
// A Tracer never calls time.Now and a Registry never timestamps anything
// on its own: callers pass the transport's Clock() explicitly. That is
// what keeps telemetry inside the repo's headline reproducibility
// property — two runs with the same seed emit byte-identical trace files,
// which is what makes golden-trace CI lanes possible (see `make
// trace-smoke`). sanlint's determinism analyzer enforces the negative
// half of the contract.
//
// # Span taxonomy
//
// Spans and instant events carry a category (the subsystem) and a name
// (the phase or event), both lowercase:
//
//   - cat "mapper": spans "explore-phase" (frontier drain), "explore"
//     (one frontier switch), "prune", "sweep" (heal verification);
//     instants "probe", "discover", "merge", "prune", "explore-done",
//     "pipeline".
//   - cat "heal": instants for the self-healing fault log —
//     "contradiction", "re-explore", "edge-drop", "unreachable-drop",
//     "budget-exhausted", "suspect-edge".
//   - cat "faults": one instant per injector record — structural events
//     ("link-cut", "switch-down", ...), probe-level faults ("probe-loss",
//     "probe-trunc", "cross-collision") and their no-op variants.
//   - cat "election": per-participant spans "mapper" (one per host, on
//     its own track) and instants "passivate", "resume", "crash",
//     "complete", "lead".
//
// # Metric naming scheme
//
// Metric names are dotted lowercase paths, most-general first:
// <subsystem>.<object>.<measure>[.<unit>]. Counters that accumulate
// virtual time carry a ".ns" suffix and are read back with
// Counter.DurationValue. Current names include:
//
//	probe.window.submitted        probes handed to the transport
//	probe.window.inflight.max     in-flight high-water mark (gauge)
//	probe.window.timeout.cost.ns  virtual time lost to misses
//	probe.window.miss.wait        histogram of per-miss waits
//	mapper.explorations           frontier switches explored
//	mapper.merges / mapper.pruned / mapper.eliminated
//	mapper.contradictions / mapper.reexplored
//	mapper.explore.time           histogram of per-exploration spans
//	faults.events.applied / faults.events.noop
//	faults.probe.loss / faults.probe.trunc / faults.probe.cross
//	election.passivated / election.crashed / election.completed
//	election.transfers            leadership transfers after a crash
//
// # The zero-allocation contract
//
// Registration (Registry.Counter, Gauge, Histogram) may allocate freely:
// it happens once, at setup. The returned handles are the hot-path API —
// Counter.Add, Gauge.SetMax, Histogram.Observe are annotated
// //sanlint:hotpath and allocate nothing: no interface boxing, no map
// lookups, no lazy registration. Every handle method is nil-receiver
// safe, so instrumented code needs no "is telemetry on?" branches and the
// un-instrumented configuration costs one predictable nil check. The
// contract is enforced twice: statically by sanlint's hotpath analyzer
// and at runtime by testing.AllocsPerRun gates in obs_test.go.
//
// # Exports
//
// Tracer.WriteChrome emits the Chrome trace_event JSON array format,
// loadable in chrome://tracing and https://ui.perfetto.dev; WriteText is
// the deterministic line-oriented log. Registry.WriteText renders every
// metric sorted by name. The Flags helper gives the sanmap, sanexp,
// sanload and sanmapd commands their common
// -trace/-metrics/-cpuprofile/-memprofile surface. See OBSERVABILITY.md for the user-facing guide.
package obs
