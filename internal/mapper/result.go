package mapper

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"sanmap/internal/obs"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// Observation is one mapper-side fault-log entry: the run's own record of
// a contradiction noticed, a region re-explored, an edge dropped or a
// budget exhausted, in virtual-time order. It complements the injector's
// ground-truth log (internal/faults): the injector records what actually
// happened to the network, the Observation log what the mapper deduced.
type Observation struct {
	At   time.Duration
	What string
	// Probe is the route string involved ("" when not applicable); a
	// "suspect-edge" entry carries the dropped deduction's a[i]--b[j] text,
	// as listed in Result.Suspect.
	Probe string
}

// String renders one log line.
func (o Observation) String() string {
	if o.Probe == "" {
		return fmt.Sprintf("%v %s", o.At, o.What)
	}
	return fmt.Sprintf("%v %s probe=%s", o.At, o.What, o.Probe)
}

// observe appends one route-scoped entry to the run's fault log.
func (r *run) observe(what string, probe simnet.Route) {
	detail := ""
	if probe != nil {
		detail = probe.String()
	}
	r.record(what, "route", detail)
}

// record appends one entry to the fault log and mirrors it onto the tracer
// as a cat-"heal" instant whose argument key names what detail is.
func (r *run) record(what, key, detail string) {
	o := Observation{At: r.p.Clock(), What: what, Probe: detail}
	r.obs = append(r.obs, o)
	if r.cfg.Tracer != nil {
		if detail != "" {
			r.cfg.Tracer.Instant("heal", what, o.At, obs.String(key, detail))
		} else {
			r.cfg.Tracer.Instant("heal", what, o.At)
		}
	}
}

// recordSuspects logs each dropped deduction once per session: the log is
// checkpointed, so an entry written by an earlier Map/Remap — in this
// process or the one that wrote the checkpoint — suppresses its repeat.
func (r *run) recordSuspects(suspects []string) {
	for _, s := range suspects {
		logged := func(o Observation) bool { return o.What == "suspect-edge" && o.Probe == s }
		if !slices.ContainsFunc(r.obs, logged) {
			r.record("suspect-edge", "edge", s)
		}
	}
}

// Result is the partial-map result of a fault-tolerant mapping run. It
// embeds the classic Map and adds the degradation report: instead of
// erroring out when the network misbehaves, a Session returns the best map
// it could assemble together with how much of it to believe.
type Result struct {
	*Map
	// Confidence is liveEdges/(liveEdges+contradictions+suspects), scaled
	// by ½ when the run was cut short — 1.0 exactly on a clean quiescent
	// run, degrading towards 0 as deductions had to be thrown away (see
	// DESIGN.md §9 for the definition's rationale).
	Confidence float64
	// Partial marks a run stopped by its fault budget: the graph covers
	// only the explored region.
	Partial bool
	// Suspect lists deductions dropped at export because they conflicted
	// (two edges claiming one port, unexportable wiring), sorted.
	Suspect []string
	// SuspectIDs are the exported node ids touched by suspect deductions,
	// sorted and deduplicated — the "suspect region" a degraded server can
	// refuse to route through while still serving everything else.
	SuspectIDs []topology.NodeID
	// FaultLog is the mapper's own record of contradictions, re-explores
	// and dropped edges, in virtual-time order.
	FaultLog []Observation
}

// result is the one epilogue of a run (§3.1): PRUNE, snapshot the
// statistics, read the map off the model graph. Conflicting deductions are
// left out of the map and reported — Suspect, SuspectIDs, Confidence, the
// fault log — instead of failing the run; Result.Exact is the strict view.
func (r *run) result() (*Result, error) {
	r.prune()
	r.stats.Elapsed = r.p.Clock() - r.start
	r.stats.Probes = r.p.Stats()
	r.stats.Inconsistent = r.model.Inconsistencies
	r.finishPipeline()

	net, mapperID, suspects, suspectIDs, err := export(r.model, r.p.LocalHost())
	if err != nil {
		return nil, err
	}
	r.recordSuspects(suspects)
	edges := net.NumWires()
	bad := r.stats.Contradictions + len(suspects)
	conf := 1.0
	if edges+bad > 0 {
		conf = float64(edges) / float64(edges+bad)
	}
	if r.partial {
		conf *= 0.5
	}
	return &Result{
		Map:        &Map{Network: net, Mapper: mapperID, Stats: r.stats, Series: r.series},
		Confidence: conf,
		Partial:    r.partial,
		Suspect:    suspects,
		SuspectIDs: suspectIDs,
		FaultLog:   r.obs,
	}, nil
}

// Exact is the strict view of the result: the same map, refused (an error,
// not a map) when any deduction had to be dropped to export it. Run and
// MergeMaps return it.
func (res *Result) Exact() (*Map, error) {
	if n := len(res.Suspect); n > 0 {
		return nil, fmt.Errorf("mapper: export: %d conflicting deductions, first %s", n, res.Suspect[0])
	}
	return res.Map, nil
}

// export converts a model graph into a topology.Network. Relative slot
// indices become concrete ports via the feasible window (any choice inside
// the window yields identical relative routes; Lemma 2). The returned node
// id is the vertex whose host name is localHost. Conflicts degrade instead
// of failing: when a slot holds several live edges (an unresolved
// contradiction) only the oldest is exported, and wiring the network
// rejects is skipped. Every dropped deduction is reported in suspects
// (sorted); the exported ids its endpoints map to are collected in
// suspectIDs (sorted, deduplicated).
func export(model *Model, localHost string) (*topology.Network, topology.NodeID, []string, []topology.NodeID, error) {
	// Vertex ids are dense below nextID, so per-vertex state is a slice.
	live := model.liveVertices()
	ids := make([]topology.NodeID, model.nextID)
	// Size the network's tables, and build the switch names m0, m1, ...
	// into one string, before the first node goes in.
	// Switch k is named names[off[k]:off[k+1]].
	var names []byte
	off := []int{0}
	for _, v := range live {
		if v.kind == topology.SwitchNode {
			names = strconv.AppendInt(append(names, 'm'), int64(len(off)-1), 10)
			off = append(off, len(names))
		}
	}
	switchNames, switches := string(names), len(off)-1
	net := &topology.Network{}
	net.Grow(len(live), len(live)-switches+switches*model.maxPorts, model.liveEdges)
	swCount := 0
	for _, v := range live {
		if v.kind == topology.HostNode {
			ids[v.id] = net.AddHost(v.name)
		} else {
			// Model switches carry the radix the run planned for; on the
			// paper's 8-port fabrics this is exactly AddSwitch.
			ids[v.id] = net.AddSwitchRadix(switchNames[off[swCount]:off[swCount+1]], model.maxPorts)
			swCount++
		}
	}
	var suspects []string
	// Port assignment: place index i at port i+p0 with p0 = lo (the lowest
	// feasible offset).
	portOf := make([]int, model.nextID) // cached p0+1 per vertex id; 0 until computed
	base := func(v *Vertex) int {
		if p := portOf[v.id]; p > 0 {
			return p - 1
		}
		lo, hi := model.window(v)
		if lo > hi {
			lo = 0 // inconsistent window (possible only under noise)
		}
		portOf[v.id] = lo + 1
		return lo
	}
	desc := func(e *Edge) string {
		name := func(v *Vertex) string {
			if v.name != "" {
				return v.name
			}
			return fmt.Sprintf("s%d", v.id)
		}
		return fmt.Sprintf("%s[%d]--%s[%d]", name(e.a), e.ai, name(e.b), e.bi)
	}
	suspectIDSet := make(map[topology.NodeID]bool)
	suspect := func(e *Edge) {
		suspects = append(suspects, desc(e))
		suspectIDSet[ids[e.a.id]] = true
		suspectIDSet[ids[e.b.id]] = true
	}
	// An edge is seen once it carries this walk's stamp.
	model.markGen++
	seen := model.markGen
	for _, v := range live {
		for _, sl := range v.slots {
			// One actual port holds one actual cable: with several live
			// edges claiming the slot, trust the oldest deduction and mark
			// the rest suspect.
			taken := false
			for e := range sl.all() {
				if e.deleted || e.mark == seen {
					if e.mark == seen && !e.deleted {
						taken = true
					}
					continue
				}
				e.mark = seen
				if taken {
					suspect(e)
					continue
				}
				taken = true
				pa, pb := e.ai, e.bi
				if e.a.kind == topology.SwitchNode {
					pa += base(e.a)
				} else {
					pa = 0
				}
				if e.b.kind == topology.SwitchNode {
					pb += base(e.b)
				} else {
					pb = 0
				}
				if e.a == e.b && pa == pb {
					// A port deduced to be cabled to itself is a loopback
					// plug: probes out of it re-entered through it, and the
					// merge machinery collapsed the apparent far switch
					// onto this one at the same index.
					if err := net.AddReflector(ids[e.a.id], pa); err != nil {
						suspect(e)
					}
					continue
				}
				if _, err := net.Connect(ids[e.a.id], pa, ids[e.b.id], pb); err != nil {
					suspect(e)
				}
			}
		}
	}
	mapperID := net.Lookup(localHost)
	if mapperID == topology.None {
		return nil, 0, nil, nil, errors.New("mapper: mapping host missing from its own map")
	}
	sort.Strings(suspects)
	var suspectIDs []topology.NodeID
	for id := range suspectIDSet {
		suspectIDs = append(suspectIDs, id)
	}
	slices.Sort(suspectIDs)
	return net, mapperID, suspects, suspectIDs, nil
}
