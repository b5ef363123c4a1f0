package workload

import (
	"fmt"
	"time"

	"sanmap/internal/connet"
	"sanmap/internal/desim"
	"sanmap/internal/mapper"
	"sanmap/internal/routes"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// Pattern selects how traffic destinations are drawn.
type Pattern uint8

const (
	// Uniform draws a fresh uniformly-random destination per message.
	Uniform Pattern = iota
	// Hotspot sends half of all traffic to one hot destination.
	Hotspot
	// Permutation fixes one destination per source (a classic adversarial
	// pattern for interconnects).
	Permutation
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case Hotspot:
		return "hotspot"
	case Permutation:
		return "permutation"
	}
	return fmt.Sprintf("pattern(%d)", uint8(p))
}

// Stats aggregates traffic outcomes.
type Stats struct {
	Sent      int64
	Delivered int64
	Lost      int64 // no route, or destroyed by contention (forward reset)
}

// traffic is what a set of sources on the contended transport share. A
// source is one host's schedule as a self-rearming engine callback: its
// send times come from the schedule, never from deliveries, except that a
// worm leaves no earlier than the host's interface finished serialising
// the previous one (connet.Inject).
type traffic struct {
	eng      *desim.Engine
	cn       *connet.Net
	tab      *routes.Table
	msgBytes int
	stats    Stats
	// stopped silences sources whose schedule has no end of its own.
	stopped bool
}

// start makes host a source of the sends next yields, until it yields false.
func (tr *traffic) start(host topology.NodeID, next func() (Send, bool)) {
	var send Send // the armed send
	var fire func()
	// arm schedules the next send at its planned time, or when the host's
	// interface frees up if that is later.
	arm := func(free time.Duration) {
		var ok bool
		if send, ok = next(); ok {
			tr.eng.At(max(send.At, free), fire)
		}
	}
	fire = func() {
		if tr.stopped {
			return
		}
		now := tr.eng.Now()
		free, delivered := now, false
		if route, ok := tr.tab.Route(host, send.Dst); ok {
			free, delivered = tr.cn.Inject(now, host, route, tr.msgBytes)
		}
		tr.stats.Sent++
		if delivered {
			tr.stats.Delivered++
		} else {
			tr.stats.Lost++
		}
		arm(free)
	}
	arm(0)
}

// SpawnPlan replays a plan over the contended transport: every plan host
// becomes a source that injects its scheduled worms at their planned times
// (or as soon after as the host's interface frees up), following the given
// route table. It is the contended-transport twin of loadsim's flat replay:
// same plan in, desim/connet fidelity out. Returns the shared Stats, valid
// after eng.Run() completes.
func SpawnPlan(eng *desim.Engine, cn *connet.Net, tab *routes.Table, p *Plan) *Stats {
	tr := &traffic{eng: eng, cn: cn, tab: tab, msgBytes: p.MsgBytes}
	for i, h := range p.Hosts {
		sends := p.Sends[i]
		tr.start(h, func() (s Send, ok bool) {
			if ok = len(sends) > 0; ok {
				s, sends = sends[0], sends[1:]
			}
			return s, ok
		})
	}
	return &tr.stats
}

// MapUnderTraffic maps with a Berkeley session (configured by opts) while
// every host offers the mix as cross-traffic along deadlock-free routes
// (computed on the actual network, as resident applications would have
// them), and returns the session's Result — whose map may be wrong or
// incomplete; measuring how wrong, as a function of offered load, is the
// experiment — with the traffic stats and the mapping duration in virtual
// time. The traffic is the plan NewPlan would materialise from the same
// mix, drawn lazily and cut off when the mapper returns: mix.Duration is
// not consulted, and mix.ByteTime is the transport's.
func MapUnderTraffic(net *topology.Network, mapperHost topology.NodeID,
	model simnet.Model, timing simnet.Timing,
	mix PlanConfig, opts ...mapper.Option) (*mapper.Result, *Stats, time.Duration, error) {

	tab, err := routes.Compute(net, routes.DefaultConfig())
	if err != nil {
		return nil, nil, 0, fmt.Errorf("workload: routes for traffic: %w", err)
	}
	eng := desim.New()
	cn := connet.New(net, model, timing)
	mix.ByteTime = timing.ByteTime
	tr := &traffic{eng: eng, cn: cn, tab: tab, msgBytes: mix.msgBytes()}
	for _, st := range newStreams(net.Hosts(), mix) {
		tr.start(st.self, func() (Send, bool) { return st.next(), true })
	}
	var out *mapper.Result
	var mapErr error
	var took time.Duration
	eng.Spawn("mapper", func(p *desim.Proc) {
		var s *mapper.Session
		if s, mapErr = mapper.NewSession(cn.Endpoint(mapperHost, p), opts...); mapErr == nil {
			out, mapErr = s.Map()
		}
		took = p.Now()
		tr.stopped = true
	})
	eng.Run()
	return out, &tr.stats, took, mapErr
}
