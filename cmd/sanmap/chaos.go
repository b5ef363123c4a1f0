package main

import (
	"fmt"

	"sanmap/internal/faults"
	"sanmap/internal/isomorph"
	"sanmap/internal/mapper"
	"sanmap/internal/obs"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// parseChaos resolves the -chaos spec (see faults.ParseProfile for the
// grammar) into a schedule for net, shielding h0's attachment switch.
func parseChaos(spec string, net *topology.Network, h0 topology.NodeID) (faults.Schedule, error) {
	p, seed, err := faults.ParseProfile(spec)
	if err != nil {
		return faults.Schedule{}, err
	}
	p.Protect = h0
	return faults.Generate(net, seed, p), nil
}

// runChaos maps the network under an injected fault schedule with the
// self-healing pipeline: map, force any remaining scheduled faults, remap
// incrementally, and report the degraded result against the surviving core.
// Every error it returns starts "chaos: " — faults.ParseProfile's own do.
func runChaos(spec string, net *topology.Network, h0 topology.NodeID,
	model simnet.Model, depth int, verbose bool, tele *obs.Flags) error {
	sched, err := parseChaos(spec, net, h0)
	if err != nil {
		return err
	}
	sn := simnet.New(net, model, simnet.DefaultTiming())
	inj := faults.Attach(sn, sched).Instrument(tele.Tracer, tele.Metrics)

	// Healing routes can need more depth than the clean bound once cuts
	// lengthen the surviving paths.
	s, err := mapper.NewSession(sn.Endpoint(h0),
		mapper.WithDepth(depth+net.NumSwitches()), mapper.WithConfirm(2),
		mapper.WithTracer(tele.Tracer), mapper.WithMetrics(tele.Metrics))
	if err != nil {
		return fmt.Errorf("chaos: %v", err)
	}
	if _, err := s.Map(); err != nil {
		return fmt.Errorf("chaos: initial map: %v", err)
	}
	inj.ApplyAll() // any faults the map phase outran land now
	sn.Reconfigure()
	res, err := s.Remap()
	if err != nil {
		return fmt.Errorf("chaos: remap: %v", err)
	}

	fmt.Printf("chaos: %d scheduled events, rates loss=%.3g trunc=%.3g cross=%.3g (seed %d)\n",
		len(sched.Events), sched.LossRate, sched.TruncRate, sched.CrossRate, sched.Seed)
	want := faults.SurvivingCore(sn.Topology(), h0)
	fmt.Printf("surviving core: %v\n", want)
	fmt.Printf("healed map:     %v\n", res.Network)
	fmt.Printf("confidence %.3f partial=%v contradictions=%d suspects=%d\n",
		res.Confidence, res.Partial, res.Stats.Contradictions, len(res.Suspect))
	if ok, reason := isomorph.Check(res.Network, want); ok {
		fmt.Println("verification: healed map is isomorphic to the surviving core")
	} else {
		sim := isomorph.Compare(res.Network, want)
		fmt.Printf("verification: degraded (%s); similarity %.3f\n", reason, sim.Score())
	}
	if verbose {
		fmt.Print("injected fault log:\n", faults.FormatLog(inj.Log()))
		fmt.Println("mapper fault log:")
		for _, o := range res.FaultLog {
			fmt.Println("  " + o.String())
		}
	}
	return nil
}
