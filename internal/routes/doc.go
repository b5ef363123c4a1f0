// Package routes computes mutually deadlock-free source routes from a
// network map, as §5.5 of the SPAA'97 mapping paper: UP*/DOWN* edge
// ordering rooted at a switch far from all hosts, all-pairs compliant
// shortest paths, random tie-breaking for load balance, relabelling of
// locally dominant switches, and conversion to the relative-turn source
// routes Myrinet interfaces consume.
//
// The pipeline is Compute(net, cfg) → *Table: ChooseRoot picks the natural
// root (maximum minimum distance to any non-ignored host), BFS labels
// orient every edge up or down, and the all-pairs pass restricts paths to
// the UP*/DOWN* form — zero or more up edges followed by zero or more down
// edges — by closing up-only distances with Floyd-Warshall and meeting
// each (s,t) pair at the ancestor w minimising U[s][w]+U[t][w], first
// strict minimum in ascending node order.
//
// Hosts take no part in that closure. A host has one wire, and it always
// points up: BFS labels a host after the switch it hangs off, and
// relabelling only ever lowers a switch. An up-only path therefore cannot
// pass through a host or end at one, so no host is a transit or meeting
// node, Floyd-Warshall runs over the switches alone, and the route s→t is
// s's wire, then the route between their two leaf switches, then t's wire.
// The meeting-node scan and both path extractions run once per leaf-switch
// pair, serially, into a template: the middle's wires, its interior turns,
// and the ports it leaves the first leaf by and enters the second by. Leaf
// pairs are visited in the order of their first host pair, so a pair with
// no compliant path is reported under the same host names as a scan over
// host pairs would. Each source row's length depends only on its leaf, so a
// prefix sum over hosts places every row, and the rows are then filled in
// contiguous blocks, one per GOMAXPROCS: a pair copies its template and
// writes the two turns at the leaves from the host ports. The scan order
// and the Rng's draw order (one draw per parallel switch-switch cable, in
// wire order) are those of the construction over all nodes, so the tables
// are the same byte for byte at any GOMAXPROCS: oracle_test.go keeps the
// replaced construction, flat_diff_test.go compares against it, and
// parallel_test.go compares the arenas across goroutine counts.
//
// A Table stores the result in two flat arenas. Hosts get dense ordinals
// in ascending id order; ordered pair (s,t) is slot ord(s)*H+ord(t); one
// offset array bounds the slot's span in the wire arena, and the turn arena
// runs parallel to it (the turn taken onto a wire sits at that wire's
// index), so there is no second offset array, no per-route allocation, and
// a lookup is two array reads. Spans are sized exactly before the arena is
// allocated, because the best cost found by the scan is the path's length.
//
// Consumers read the result three ways: WirePath for analyses (loadsim,
// place), Route for the relative-turn strings the simulated interfaces
// consume — both return capacity-capped views of the arenas, allocation-
// free, not to be modified — and Pairs, which visits every routed pair in
// ascending (src, dst) order. VerifyDeadlockFree is a channel-dependency-
// graph cycle check over any route set, including tables recomputed on
// healed maps after fault injection, where deadlock freedom must survive
// the missing links.
package routes
