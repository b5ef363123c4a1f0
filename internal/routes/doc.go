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
// The meeting-node scan runs once per leaf-switch pair, serially, and the
// result is a template: the route between two hosts on those leaves with
// the host ports left out — one turn per switch on the way, the first
// still the raw port the route leaves the source leaf by, the last minus
// the port it enters the destination leaf by. A template is the source
// leaf's up path to the meeting node, one turn there, and the destination
// leaf's up path to it reversed; each leaf's up path to each meeting node
// it uses is extracted once, as turns read off the per-end wiring tables
// below, and kept both ways round, so a template is two copies and a
// turn. Leaf pairs are visited in the order of their first host pair, so a
// pair with no compliant path is reported under the same host names as a
// scan over host pairs would.
//
// Compute stops there, with nothing the size of the host pairs built. The
// route between two hosts is their leaf pair's template with the source's
// port subtracted from the first turn and the destination's added to the
// last; turns wrap like the int8s they are, so patching the two ports
// separately gives the bytes the two-port difference would. A source's row
// holds one cell per host in ascending order, its own one turn long, so
// the rows of the hosts on one leaf switch have the same cells, and
// Compute records those once per leaf. So a Table is logically immutable,
// rows written on first read: the first lookup from a host writes that
// host's row, under a mutex, publishing it with an atomic row start that
// every later lookup loads, so lookups from any number of goroutines —
// sanmapd's connections share a snapshot's table — are safe. The first
// row of a leaf is written from the templates; a later one is a copy of
// it with the first turn of each cell moved by the difference of the two
// sources' ports. The turn arena itself is allocated by the first row
// write: the one allocation lookups make, once per table. A commit
// therefore pays for the templates, and readers for the rows they read;
// the consumers that walk every pair (Pairs: loadsim, place, the
// verifiers, Distribute) write every row. ShortestPaths writes the same
// templates from one BFS per leaf switch — a host's one wire makes a
// shortest path from it its wire, then one from its leaf — so both tables
// share the layout and the row writer. The scan order (the first of
// parallel switch-switch cables, in wire order, carries every route
// between its ends) is that of the construction over all nodes, so the
// tables are the same byte for byte: oracle_test.go keeps the replaced
// constructions, which build each host pair's route on its own,
// flat_diff_test.go compares against them on every generator, and
// parallel_test.go writes every row and compares the arenas across
// GOMAXPROCS, and rows written by concurrent first lookups in different
// orders with an eagerly written copy.
//
// A Table stores the result in one flat arena of turns. Hosts get dense
// ordinals in ascending id order; the route of ordered pair (s,t) is t's
// cell in s's row, bounded by s's row start and its leaf's cell offsets,
// and the span is the route itself, so there is no per-route allocation
// and a lookup is a row-start load and two array reads. The wires a route
// takes are not stored: §2.2's turns fix them given the map (at each
// switch, out port = in port + turn), and a Path walks them on demand from
// the source's host wire. That keeps a table at one byte per hop instead
// of nine. The walk reads per-end tables taken from the map when the table
// is built — for every (node, port) end, the end itself, the end across
// its wire and the channel arriving by it — so a step is one array read,
// a walk keeps following the map the table was computed on even if Net is
// edited later, and the templates are extracted from the same tables.
//
// Consumers read the result three ways: Route for the relative-turn strings
// the simulated interfaces consume (a capacity-capped view of the arena,
// not to be modified), WirePath for analyses (loadsim, place, the verifiers,
// mapd's suspect check) — a Path whose Walker yields each wire with the end
// the route enters it by and its directed channel, all allocation-free —
// and Pairs, which visits every routed pair's Path in ascending (src, dst)
// order. VerifyDeadlockFree is a channel-dependency-graph cycle check over
// any route set, including tables recomputed on healed maps after fault
// injection, where deadlock freedom must survive the missing links; it
// numbers channels densely and searches them in ascending order, so the
// cycle it reports is the same on every call.
package routes
