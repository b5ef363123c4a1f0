// Package workload generates application traffic over the mapped network:
// the cross-traffic of the paper's §6 future-work question ("the accurate
// mapping of system area networks in the presence of application
// cross-traffic") and the replayable plans route quality is measured with.
// Traffic worms follow deadlock-free source routes (as real applications
// would) and contend for links with mapping probes.
//
// There is one generator: every host owns a stream keyed on (Seed, host
// index), the only place a destination or a gap is ever drawn, and Load is
// the offered load per host as a fraction of link bandwidth whichever way
// the stream is consumed. NewPlan drains every stream to a horizon into a
// Plan, so the exact same offered traffic can be replayed over a healthy
// map, a healed map and a stale route table and the results compared
// link-for-link (internal/loadsim consumes plans, SpawnPlan replays one
// over connet, Plan.Write dumps the sanplan v1 text of WORKLOADS.md).
// MapUnderTraffic draws the same streams lazily, as live cross-traffic
// beside a running mapper, until the mapper returns: a live host's first N
// sends are its plan's first N.
//
// On the contended transport a source is a schedule, not a process: one
// self-rearming desim callback per host. Sources are open-loop — send times
// never depend on deliveries. The only desim process this package starts
// is the mapper.
//
// Three destination patterns are provided: Uniform (uniformly random
// destination per message), Hotspot (half of all traffic aimed at
// one hot host), and Permutation (one fixed destination per source, the
// classic adversarial pattern for interconnects). Aggregated demand is
// exposed as a Matrix, the interface the branch-and-bound placement
// optimizer (internal/place) consumes.
//
// Determinism: every host's schedule comes from its own splitmix64 stream
// keyed on the seed and the host's index (the faults.NewSource
// convention), so drawing schedules concurrently — or only for a subset of
// hosts — yields byte-identical results.
package workload
