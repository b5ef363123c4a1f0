// Package connet is the concurrent (contended) network transport: multiple
// hosts probe and send application traffic at the same time over one
// topology, with per-directed-link occupancy, blocking, and the Myrinet
// forward-reset timeout. It runs on the desim engine and drives the paper's
// election-mode measurements (Fig 7's second timing column), the §6
// parallel-mapping extension, and the §6 "mapping in the presence of
// application cross-traffic" experiments.
//
// The fidelity level is link reservation: a worm reserves each directed
// link it crosses for its serialisation time starting at the head's arrival
// there. A worm whose head must wait longer than the blocked-port reset
// (55 ms in switch ROMs) is destroyed, like the hardware would — but the
// reservations its earlier hops already placed persist, so a killed worm
// still congests the prefix of its path. Worm self-collision, route
// failures and silent hosts come from the simnet evaluator, so the
// quiescent semantics embed exactly.
//
// There are two ways in, and one link rule behind both. An Endpoint binds a
// host to a desim process and implements simnet.Prober: mappers block on
// their probes, so they are processes. Net.Inject sends one traffic worm
// with no process at all: a traffic source is a timed callback on the same
// engine that calls Inject and re-arms itself no earlier than its host's
// interface is free again (workload.SpawnPlan replays a traffic plan that
// way). When only aggregate route quality matters — millions of worms,
// nothing reacting to them — internal/loadsim applies this package's link
// rule on flat arrays; its differential test replays the same plans
// through both and holds them to equal delivered, blocked and delayed
// counts and equal per-link reservation horizons.
package connet
