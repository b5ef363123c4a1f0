// Package myricom implements the Myricom mapping algorithm of §4 of the
// SPAA'97 paper — the baseline the Berkeley algorithm is evaluated against.
//
// The Myricom algorithm "aggressively looks for replicates as it explores
// the network": it keeps a frontier of candidate switches, and before
// exploring a candidate it sends *comparison probes* of the form
// T1..Tn X −Sm..−S1 against every already-explored switch B (route S): the
// message reaches the candidate over T, takes one spanning turn X, and if
// that turn lands on the port B was entered on over S, the reversed S route
// carries the message home. A returned message proves candidate == B, and X
// reveals the offset between the two switches' relative port frames. New
// switches are explored with up to 14 loop-cable probes (T X −X −T,
// catching loopback plugs), then host probes, then switch probes — the
// per-category message accounting of Fig 10 (loop / host / sw / comp).
// Unlike the Berkeley algorithm's lazy deduction, "merging two switches
// never produces new ones to merge".
package myricom

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// Stats counts messages by the categories of Fig 10.
type Stats struct {
	Loop    int64 // loop-cable probes
	Host    int64 // host probes
	Switch  int64 // switch (loopback) probes
	Compare int64 // switch-disambiguation comparison probes
	Matches int64 // comparisons that identified a replicate
	Elapsed time.Duration
}

// Total is the total message count, the paper's comparison metric.
func (s Stats) Total() int64 { return s.Loop + s.Host + s.Switch + s.Compare }

// Config parameterises a run.
type Config struct {
	// Depth bounds candidate route lengths, like the Berkeley SearchDepth.
	Depth int
	// CompareWindow restricts comparison probes to explored switches whose
	// route length differs by at most this much from the candidate's (one
	// of the paper's "variety of heuristics to reduce the total number of
	// probes"; BFS order makes same-depth collisions overwhelmingly
	// likely). Negative disables the heuristic (compare against all).
	CompareWindow int
	// MaxCandidates aborts pathological runs (0 = default 1<<16).
	MaxCandidates int
	// Cancel, when non-nil, is polled between candidates; returning true
	// aborts the run with ErrCanceled (election-mode passivation, §4.2).
	Cancel func() bool
}

// ErrCanceled reports a run aborted by Config.Cancel.
var ErrCanceled = errors.New("myricom: run canceled")

// DefaultConfig mirrors the paper's setup. The comparison window is
// disabled by default: a window can miss replicates reached over routes of
// different lengths (irregular fat trees have them), producing duplicate
// switches; the O(N²)-with-large-constant comparison bill that results is
// exactly the behaviour §4.2 describes.
func DefaultConfig(depth int) Config {
	return Config{Depth: depth, CompareWindow: -1, MaxCandidates: 1 << 16}
}

// Map is the result of a Myricom mapping run.
type Map struct {
	Network *topology.Network
	Mapper  topology.NodeID
	Stats   Stats
	// Reflectors lists loopback plugs found, as ends in Network.
	Reflectors []topology.End
}

// swRecord is an explored switch. Frame index 0 is the entry port of its
// exploration route.
type swRecord struct {
	id     int
	route  simnet.Route
	hostAt map[int]string
	loopAt map[int]bool
	usedAt map[int]bool // any occupied frame index (for window/export)
	// swCandAt marks frame indices where this switch's exploration saw
	// another switch. A replicate candidate necessarily enters through one
	// of these ports, which is what lets compare() prune its X scan.
	swCandAt map[int]bool
}

func (r *swRecord) use(idx int) { r.usedAt[idx] = true }

// swEdge is a resolved switch-to-switch cable with both frame indices.
type swEdge struct {
	a  *swRecord
	ai int
	b  *swRecord
	bi int
}

// candidate is a frontier entry: a probe route believed to reach a switch,
// hanging off parent's frame index parentIdx.
type candidate struct {
	route     simnet.Route
	parent    *swRecord
	parentIdx int
}

type runner struct {
	p     simnet.Prober
	cfg   Config
	stats Stats
	done  []*swRecord
	edges []swEdge
}

// Run executes the Myricom algorithm.
func Run(p simnet.Prober, cfg Config) (*Map, error) {
	if !p.Probes().Has(simnet.CapRaw | simnet.CapHost | simnet.CapSwitch) {
		return nil, fmt.Errorf("myricom: transport lacks raw, host or switch probes: %w", simnet.ErrUnsupported)
	}
	if cfg.Depth < 1 {
		return nil, fmt.Errorf("myricom: Depth must be >= 1")
	}
	if cfg.MaxCandidates == 0 {
		cfg.MaxCandidates = 1 << 16
	}
	r := &runner{p: p, cfg: cfg}
	start := p.Clock()

	frontier := []candidate{{route: simnet.Route{}}}
	popped := 0
	for len(frontier) > 0 {
		if cfg.Cancel != nil && cfg.Cancel() {
			return nil, ErrCanceled
		}
		c := frontier[0]
		frontier = frontier[1:]
		if popped++; popped > cfg.MaxCandidates {
			return nil, fmt.Errorf("myricom: exceeded MaxCandidates")
		}
		if match, off := r.compare(c); match != nil {
			// Candidate == match, entered on match's frame index off.
			if c.parent != nil {
				r.addEdge(c.parent, c.parentIdx, match, off)
			}
			continue
		}
		rec := &swRecord{id: len(r.done), route: c.route,
			hostAt: make(map[int]string), loopAt: make(map[int]bool),
			usedAt: make(map[int]bool), swCandAt: make(map[int]bool)}
		r.done = append(r.done, rec)
		if c.parent != nil {
			r.addEdge(c.parent, c.parentIdx, rec, 0)
			rec.swCandAt[0] = true // the entry cable leads to the parent switch
		} else {
			// The first switch's entry port is the mapper's own cable; the
			// mapper knows its own identity without probing.
			rec.hostAt[0] = p.LocalHost()
			rec.use(0)
		}
		frontier = append(frontier, r.explore(rec)...)
	}

	r.stats.Elapsed = p.Clock() - start
	return r.export()
}

// addEdge records a switch-switch cable, deduplicating rediscoveries from
// the far side.
func (r *runner) addEdge(a *swRecord, ai int, b *swRecord, bi int) {
	if a.id > b.id || (a.id == b.id && ai > bi) {
		a, ai, b, bi = b, bi, a, ai
	}
	for _, e := range r.edges {
		if e.a == a && e.ai == ai && e.b == b && e.bi == bi {
			return
		}
	}
	r.edges = append(r.edges, swEdge{a: a, ai: ai, b: b, bi: bi})
	a.use(ai)
	b.use(bi)
}

// compare sends comparison probes testing the candidate against explored
// switches (most recent first, within the depth window); on a hit it
// returns the match and the candidate's entry index in the match's frame.
//
// Derivation of the offset: the probe exits the candidate's entry port p
// with turn x; success requires the port p+x to be the very port the match
// was entered on over S (call it q), because only then does −Sm..−S1
// retrace S. So p = q − x: in the match's frame (where q is index 0) the
// candidate's entry sits at index −x.
func (r *runner) compare(c candidate) (*swRecord, int) {
	if c.parent == nil {
		return nil, 0 // the first switch has nothing to compare against
	}
	// Scan explored switches nearest in route length first (BFS order makes
	// same-depth replicates overwhelmingly likely), most recent first
	// within a length class.
	order := make([]*swRecord, 0, len(r.done))
	for i := len(r.done) - 1; i >= 0; i-- {
		order = append(order, r.done[i])
	}
	sortByLenDiff(order, len(c.route))
	for _, b := range order {
		if r.cfg.CompareWindow >= 0 {
			d := len(c.route) - len(b.route)
			if d < -r.cfg.CompareWindow || d > r.cfg.CompareWindow {
				continue
			}
		}
		rev := b.route.Reversed()
		for x := simnet.Turn(-simnet.MaxTurn); x <= simnet.MaxTurn; x++ {
			if x == 0 {
				continue
			}
			// X-scan pruning: success means the candidate entered b on
			// frame index -x, and a replicate's entry port must be one
			// where b's own exploration saw a switch. Ports b never saw a
			// switch on cannot match, so their probes are skipped.
			if !b.swCandAt[-int(x)] {
				continue
			}
			probe := make(simnet.Route, 0, len(c.route)+1+len(rev))
			probe = append(probe, c.route...)
			probe = append(probe, x)
			probe = append(probe, rev...)
			r.stats.Compare++
			if simnet.Do(r.p, simnet.Probe{Kind: simnet.ProbeRaw, Route: probe}).OK {
				r.stats.Matches++
				return b, -int(x)
			}
		}
	}
	return nil, 0
}

// sortByLenDiff stably sorts records by |len(route) − n| ascending.
func sortByLenDiff(recs []*swRecord, n int) {
	abs := func(x int) int {
		if x < 0 {
			return -x
		}
		return x
	}
	sort.SliceStable(recs, func(i, j int) bool {
		return abs(len(recs[i].route)-n) < abs(len(recs[j].route)-n)
	})
}

// explore probes all ports of a newly-accepted switch: loop-cable probes,
// host probes, then switch probes for the remainder (up to 14 each, §4.2's
// message accounting).
func (r *runner) explore(rec *swRecord) []candidate {
	var out []candidate
	if len(rec.route) >= r.cfg.Depth {
		return nil
	}
	revT := rec.route.Reversed()
	for t := simnet.Turn(-simnet.MaxTurn); t <= simnet.MaxTurn; t++ {
		if t == 0 {
			continue
		}
		idx := int(t)
		// Loop-cable probe: T t −t −T. A loopback plug reflects the message
		// straight back in; −t returns it to the entry port; −T walks home.
		loop := make(simnet.Route, 0, len(rec.route)*2+2)
		loop = append(loop, rec.route...)
		loop = append(loop, t, -t)
		loop = append(loop, revT...)
		r.stats.Loop++
		if simnet.Do(r.p, simnet.Probe{Kind: simnet.ProbeRaw, Route: loop}).OK {
			rec.loopAt[idx] = true
			rec.use(idx)
			continue
		}
		r.stats.Host++
		if res := simnet.Do(r.p, simnet.Probe{Kind: simnet.ProbeHost, Route: rec.route.Extend(t)}); res.OK {
			rec.hostAt[idx] = res.Host
			rec.use(idx)
			continue
		}
		r.stats.Switch++
		if simnet.Do(r.p, simnet.Probe{Kind: simnet.ProbeSwitch, Route: rec.route.Extend(t)}).OK {
			rec.use(idx)
			rec.swCandAt[idx] = true
			out = append(out, candidate{route: rec.route.Extend(t), parent: rec, parentIdx: idx})
		}
	}
	return out
}

// sortedIdx returns a frame-index map's keys in ascending order.
func sortedIdx[V any](m map[int]V) []int {
	idx := make([]int, 0, len(m))
	for i := range m {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}

// export assembles the final map, normalising each switch's frame indices
// into concrete ports 0..7 (any offset inside the feasible window yields
// identical relative routes). Hosts and reflectors are added in ascending
// port order, so NodeIDs and Network.Write output are the same on every
// run.
func (r *runner) export() (*Map, error) {
	net := &topology.Network{}
	ids := make([]topology.NodeID, len(r.done))
	base := make([]int, len(r.done))
	for i, rec := range r.done {
		ids[i] = net.AddSwitch(fmt.Sprintf("y%d", i))
		minIdx := 0
		for idx := range rec.usedAt {
			if idx < minIdx {
				minIdx = idx
			}
		}
		base[i] = -minIdx
	}
	m := &Map{Network: net}
	hostIDs := make(map[string]topology.NodeID)
	for i, rec := range r.done {
		for _, idx := range sortedIdx(rec.hostAt) {
			host := rec.hostAt[idx]
			h, ok := hostIDs[host]
			if !ok {
				h = net.AddHost(host)
				hostIDs[host] = h
			}
			if _, err := net.Connect(ids[i], idx+base[i], h, topology.HostPort); err != nil {
				return nil, fmt.Errorf("myricom: export host edge: %w", err)
			}
		}
		for _, idx := range sortedIdx(rec.loopAt) {
			if err := net.AddReflector(ids[i], idx+base[i]); err != nil {
				return nil, fmt.Errorf("myricom: export reflector: %w", err)
			}
			m.Reflectors = append(m.Reflectors, topology.End{Node: ids[i], Port: idx + base[i]})
		}
	}
	for _, e := range r.edges {
		if _, err := net.Connect(ids[e.a.id], e.ai+base[e.a.id], ids[e.b.id], e.bi+base[e.b.id]); err != nil {
			return nil, fmt.Errorf("myricom: export switch edge: %w", err)
		}
	}
	m.Stats = r.stats
	mapperID := net.Lookup(r.p.LocalHost())
	if mapperID == topology.None {
		return nil, fmt.Errorf("myricom: mapping host missing from its own map")
	}
	m.Mapper = mapperID
	return m, nil
}
