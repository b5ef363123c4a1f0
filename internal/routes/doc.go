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
// The route between two leaves is a template: the route between two hosts
// on those leaves with the host ports left out — one turn per switch on
// the way, the first still the raw port the route leaves the source leaf
// by, the last minus the port it enters the destination leaf by. A
// template is the source leaf's up path to the meeting node, one turn
// there, and the destination leaf's up path to it reversed; each leaf's up
// path to each meeting node it uses is extracted once, as turns read off
// the per-end wiring tables below, and kept both ways round, so a template
// is two copies and a turn.
//
// Compute stops at the closure: the root, the labels and the up-only
// distances with their first hops, nothing per leaf pair. The leaf switch
// is the unit the rest is built in, the first time a lookup from one of
// its hosts reads the table: that leaf's meeting-node scan against every
// other leaf, the up paths it needs (memoised across leaves), its
// templates, its cells and the arena for its hosts' rows. The route
// between two hosts is their leaf pair's template with the source's port
// subtracted from the first turn and the destination's added to the last;
// turns wrap like the int8s they are, so patching the two ports
// separately gives the bytes the two-port difference would. A source's row
// holds one cell per host in ascending order, its own one turn long, so
// the rows of the hosts on one leaf switch have the same cells, kept once
// per leaf. So a Table is logically immutable, leaves built and rows
// written on first read: the first lookup from a host writes that host's
// row, under a mutex, publishing it — and its leaf, with the leaf's first
// row — with an atomic row start that every later lookup loads, so lookups
// from any number of goroutines (sanmapd's connections share a snapshot's
// table) are safe. The first row of a leaf is written from the templates;
// a later one is a copy of it with the first turn of each cell moved by
// the difference of the two sources' ports. Building a leaf allocates its
// cells and arena, carved from chunks that double, so a walk over every
// pair makes a few allocations and a lookup whose row is written makes
// none. A commit therefore pays for the closure, and readers for the
// leaves and rows they read; the consumers that walk every pair (Pairs:
// loadsim, place, the verifiers, Distribute) build every leaf and write
// every row. ShortestPaths builds the same templates from one BFS per leaf
// switch, also when a lookup first needs the leaf — a host's one wire
// makes a shortest path from it its wire, then one from its leaf — so both
// tables share the layout and the row writer. The scan order (the first of
// parallel switch-switch cables, in wire order, carries every route
// between its ends) is that of the construction over all nodes, so the
// tables are the same byte for byte: oracle_test.go keeps the replaced
// constructions — the nested maps that build each host pair's route on its
// own, and the eager pass that built every leaf pair's template and every
// row at once — flat_diff_test.go compares against the first on every
// generator, and parallel_test.go against the second, with leaves built
// in shuffled orders by concurrent first lookups, and compares arenas
// across GOMAXPROCS.
//
// A deferred build cannot refuse. Compute decides every refusal it makes
// before it returns — too few hosts, a disconnected network, no usable
// root, a host not cabled to a switch, a table too large to index — and a
// leaf's meeting-node scan always finds a meeting node, because the root
// is up-reachable from every leaf. Call a node fixed if relabelling never
// lowers it, so its label stays its BFS number. Hosts are fixed (only
// switches are relabelled). If v is fixed and p is its BFS parent, then p
// always has a neighbour labelled above it — v, at BFS(v) > BFS(p), while
// labels only fall — so p is never locally dominant and is fixed too, and
// crossing from v to p is an up move. A leaf is the BFS parent of its
// hosts, so the BFS tree path from a leaf to the root runs through fixed
// switches only (no host is a BFS parent: its one wire leads back to the
// switch it was found from), each move up: the closure contains it.
// TestRootInEveryUpClosure checks the property on every generator, from
// every switch as root, and on random fabrics whose relabelling fired.
// For ShortestPaths the network is connected, so a BFS from a leaf
// reaches every leaf.
//
// A Table stores the result in one flat arena of turns per leaf switch.
// Hosts get dense ordinals in ascending id order; the route of ordered
// pair (s,t) is t's cell in s's row, bounded by s's row start and its
// leaf's cell offsets, and the span is the route itself, so there is no
// per-route allocation and a lookup is a row-start load and two array
// reads. The wires a route
// takes are not stored: §2.2's turns fix them given the map (at each
// switch, out port = in port + turn), and a Path walks them on demand from
// the source's host wire. That keeps a table at one byte per hop instead
// of nine. The walk reads per-end tables taken from the map when the table
// is built — for every (node, port) end, the end itself, the end across
// its wire and the channel arriving by it — so a step is one array read,
// a walk keeps following the map the table was computed on even if Net is
// edited later, and the templates are extracted from the same tables, so
// a leaf built after an edit is built on the map the table was computed
// on.
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
