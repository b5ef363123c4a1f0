// Package loadsim replays materialised traffic plans over a computed route
// table at millions-of-worms throughput, and reports route quality under
// load: delivered/lost/blocked accounting, the latency distribution,
// per-directed-link congestion, and the table's deadlock-freedom verdict.
//
// It answers the question the mapper's output exists to serve: not "is the
// map correct" (isomorph does that) but "how good are the routes the map
// yields when real traffic flows over them" — on a healthy fabric, on a
// degraded fabric still running a stale table, and on a healed fabric after
// route recomputation. cmd/sanload drives all three regimes over one plan.
//
// The link rule is the connet transport's: a worm reserves each directed
// link for its full serialisation time from the head's arrival, waits
// behind earlier reservations, and dies to the blocked-port forward reset
// when a wait exceeds the 55 ms ROM timeout — with the killed worm's earlier
// reservations left in place, as the hardware leaves flits strung through
// upstream switches. TestDifferentialConnet replays the same plans through
// both and holds them to equal delivered, blocked and delayed counts and
// equal final reservations on every directed link. The source model is not
// connet's: a connet source holds its next worm until its interface has
// finished serialising the previous one, loadsim queues the next worm on
// the host's own link like on any other (TestSourceModelDiffers). What
// loadsim drops is the shared engine: no mapper process to interleave
// with, no callbacks, no maps in the replay loop. Routes compile once into
// flat directed-hop arrays; the plan's per-host schedules are merged once
// (workload.Plan.Merge: a stable radix sort by time of the schedules laid
// end to end in host order, which is the order (time, host, seq)) into one
// flat injection order, and a replay is a linear scan
// of it — the per-worm walk a zero-allocation array scan that touches
// nothing outside its engine. That flattening is what buys 1M+ worms per
// run in seconds, and the isolation is what lets RunAll replay one merged
// schedule on several engines concurrently (cmd/sanload's healthy, stale
// and healed tables; Engine.Copy shares the compiled routes between the
// first two). RunAll's workers, one per CPU, advance the replays a stretch
// of the schedule at a time: a replay with a Then (sanload's stale replay,
// whose demand matrix the placement search reads) first, then the one with
// the most left, so the Then starts as early as it can and overlaps the
// other replays. Instrument's mirrors are folded in after the replays,
// engine by engine in argument order, so a shared registry reads as if the
// engines had run one after another.
//
// The hop rule in the walk has one data-dependent branch, the kill: a
// head's wait at a link is max(busyUntil-arrival, 0), charged to the link
// and to the arrival whether it is zero or not, and whether the worm waited
// at all is read off its arrival after the last hop. A report's latency
// percentiles are exact order statistics found by selection: one pass
// counts the latencies into 2048 ascending buckets (and takes the least,
// the greatest and the sum), and only the at most three buckets holding
// the p50, p90 and p99 ranks are copied out and sorted.
//
// Determinism: a replay is a pure function of (engine, plan). The injection
// order is a strict total order, aggregation never iterates a map, and
// Report.WriteText renders integers and sorted link lists only — so equal
// seeds yield byte-identical reports, the property the load-smoke CI lane
// pins. workload.SpawnPlan replays the same plans over desim/connet when
// the traffic has to share its links with a mapper's probes.
package loadsim
