// Package faults is the deterministic fault-injection layer for the
// simulated network: the machinery for exercising exactly the regime the
// paper's Theorem 1 assumes away. §2 proves the mapping algorithm correct
// only for a quiescent, fault-free network and §5 concedes that Myricom's
// production mapper must instead survive links and switches that die or
// appear mid-map; this package injects those conditions on purpose, on a
// schedule, reproducibly.
//
// Faults are declared as a Schedule in virtual time: structural events
// (link cuts, link restores, switch death and restart) applied when the
// transport's clock reaches their timestamps, plus per-probe stochastic
// faults (response loss, worm truncation, cross-traffic collisions) decided
// by a seeded hash of the probe sequence number. Nothing reads the wall
// clock or global rand, so a (topology, schedule) pair replays the same
// byte-identical run forever — which is what makes golden chaos tests and
// the `make chaos` CI lane possible.
//
// The Injector implements simnet.Injector by mutating the topology itself
// (RemoveWire / Connect): the topology's structural version feeds the
// evaluator's memo key, so fault application invalidates cached route state
// automatically, with no extra bookkeeping in the hot path.
//
// # The seeding convention
//
// This package is where the repo's randomness convention is defined:
// every stochastic decision anywhere in the simulator derives from
// splitmix64 over an explicit caller-supplied seed. The two forms are
//
//   - the keyed hash (the package-private mix64 finalizer): decisions
//     addressed by position — probe sequence number, wire index, time
//     quantum — are hashed independently, so one decision can be replayed
//     or audited without generating its predecessors;
//   - the sequential stream (SplitMix64 / NewSource): code that wants a
//     conventional generator draws from a splitmix64 *rand.Rand source
//     instead of math/rand's default LCG.
//
// Both forms exist because both are needed: hashes for decision streams
// that must be stable under reordering (the injector can roll probe N's
// loss without having rolled probes 1..N−1), the sequential source for
// call sites that genuinely consume a stream (topology generation,
// traffic plans, placement tie-breaks). Never seed from the wall clock,
// never touch global math/rand — sanlint's determinism analyzer (rule D2)
// enforces the negative half, and the golden-file CI lanes would catch
// the drift anyway.
//
// # Observability
//
// An Injector instrumented with Instrument mirrors its Record log onto
// the unified observability layer (internal/obs): one cat-"faults"
// instant per record and counters faults.events.applied,
// faults.events.noop, faults.probe.loss, faults.probe.trunc and
// faults.probe.cross. The Record log remains the ground-truth API; the
// obs mirror is what lands fault marks on the same timeline as the
// mapper's spans in a Chrome trace.
package faults
