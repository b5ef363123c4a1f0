// Package flow implements small-scale maximum-flow and minimum-cost-flow
// solvers used by the topology analyses of the SPAA'97 mapping paper.
//
// Lemma 1 of the paper characterises the unmappable region F of a network
// via the Max-Flow Min-Cut theorem ("Let v be a source of flow 2, and
// attach a sink to all hosts ... give all edges capacity 1"), and the probe
// depth bound Q(v) (Definition 2) is the minimum total length of an
// edge-disjoint path pair from the mapper through v and on to a host —
// a 2-unit minimum-cost flow.
//
// A Graph is built with AddArc. MaxFlow and MinCostFlow are the general
// solvers (BFS augmentation; successive shortest paths with a queue-based
// Bellman-Ford): they leave their flow in the graph, so a caller with many
// sources rebuilds the graph for each. They are the cross-check for F and
// the reference TwoUnitCost is tested against.
//
// TwoUnitCost is the batch form Q needs: every vertex asks the same
// question of the same network — what do two units to the one shared sink
// cost? — so the network is built once and each answer leaves it as it was.
//
//   - Potentials. One shortest-path pass backwards from the sink gives
//     pot[v], the exact cost from v to the sink with no flow anywhere. That
//     is a feasible potential for every source at once: the triangle
//     inequality pot[u] <= c(u,v) + pot[v] holds on every arc with spare
//     capacity, so all reduced costs c(u,v) + pot[v] - pot[u] are >= 0, and
//     the pass does not depend on where the flow will start.
//   - First unit. The shortest path from s is read off the pass's tree; no
//     search. Its arcs are tight (reduced cost 0), so the residual arcs the
//     push creates are 0 as well and the potentials stay feasible.
//   - Second unit. Non-negative reduced costs make a Dijkstra search valid
//     on the residual network; with integer costs it is a bucket queue
//     (Dial), three buckets on the unit-cost wire networks of Q, and it
//     stops the moment the sink settles. The path's true cost is its
//     reduced length plus pot[s], so the answer is 2*pot[s] + that length.
//   - Undo. The second path is only measured, never pushed; the first
//     touched just the tree path from s, which is walked again to restore
//     it. Search labels are generation-stamped, so nothing is cleared
//     between sources either, and after the first call for a sink a call
//     allocates nothing.
//
// Min-cost flow values are unique, so the answers equal MinCostFlow's on a
// fresh graph exactly — the property the differential tests here and in
// internal/topology check on every generator family.
package flow
