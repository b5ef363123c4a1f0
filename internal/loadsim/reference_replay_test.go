package loadsim

import (
	"time"

	"sanmap/internal/connet"
	"sanmap/internal/desim"
	"sanmap/internal/routes"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
	"sanmap/internal/workload"
)

// spawnPlanProcesses is workload.SpawnPlan as it was while traffic sources
// were desim processes — one process per plan host, sleeping to each
// send's time and then through its serialisation — kept verbatim as the
// reference TestCallbackReplayMatchesProcessReplay holds the callback
// sources to.
func spawnPlanProcesses(eng *desim.Engine, cn *connet.Net, tab *routes.Table, p *workload.Plan) *workload.Stats {
	stats := &workload.Stats{}
	net := cn.Quiet().Topology()
	for i, h := range p.Hosts {
		h := h
		sends := p.Sends[i]
		if len(sends) == 0 {
			continue
		}
		eng.Spawn("replay-"+net.NameOf(h), func(proc *desim.Proc) {
			ep := processEndpoint{cn, h, proc}
			for _, s := range sends {
				if d := s.At - proc.Now(); d > 0 {
					proc.Sleep(d)
				}
				route, ok := tab.Route(h, s.Dst)
				if !ok {
					stats.Lost++
					stats.Sent++
					continue
				}
				stats.Sent++
				if ep.SendWorm(route, p.MsgBytes) {
					stats.Delivered++
				} else {
					stats.Lost++
				}
			}
		})
	}
	return stats
}

// processEndpoint carries the retired Endpoint.SendWorm. The original
// called the unexported link walk; from outside the package the worm enters
// the links through Inject, while whether it is sent at all and how long
// the sender then sleeps are still worked out here, independently.
type processEndpoint struct {
	net  *connet.Net
	host topology.NodeID
	proc *desim.Proc
}

// SendWorm injects an application traffic worm of the given payload size
// from the endpoint's host along a precomputed source route. It returns
// whether the worm was delivered (route valid, no contention kill) and
// advances virtual time by the transmission time at the source (cut-through
// injection: the host is busy for the serialisation time, not the full
// transit).
func (e processEndpoint) SendWorm(route simnet.Route, payloadBytes int) bool {
	res, _ := e.net.Quiet().EvalPath(e.host, route)
	if res.Outcome != simnet.Delivered {
		return false
	}
	now := e.proc.Now()
	msgBytes := simnet.MessageBytes(len(route)) + payloadBytes
	occupied := time.Duration(msgBytes) * e.net.Quiet().Timing().ByteTime
	_, alive := e.net.Inject(now, e.host, route, payloadBytes)
	e.proc.Sleep(occupied)
	return alive
}
