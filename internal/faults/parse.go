package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"sanmap/internal/topology"
)

// ParseProfile parses the fault spec shared by sanmap -chaos, sanmapd
// -chaos and sanmapd's inject op: comma-separated key=value pairs, e.g.
// "seed=7" or "seed=3,cuts=2,flaps=1,loss=0.02". Unknown keys are
// errors. A spec that names no fault at all (bare "seed=N") gets the
// default mixed load of one cut, one flap and 2% loss. Protect comes back
// as topology.None; callers that want the mapper's attachment switch
// shielded set it before Generate.
func ParseProfile(spec string) (Profile, uint64, error) {
	p := Profile{Protect: topology.None}
	seed := uint64(1)
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Profile{}, 0, fmt.Errorf("chaos: %q is not key=value", kv)
		}
		var err error
		switch k {
		case "seed":
			seed, err = strconv.ParseUint(v, 10, 64)
		case "cuts":
			p.Cuts, err = strconv.Atoi(v)
		case "flaps":
			p.Flaps, err = strconv.Atoi(v)
		case "kills":
			p.SwitchKills, err = strconv.Atoi(v)
		case "restart":
			p.Restart, err = strconv.ParseBool(v)
		case "loss":
			p.LossRate, err = strconv.ParseFloat(v, 64)
		case "trunc":
			p.TruncRate, err = strconv.ParseFloat(v, 64)
		case "cross":
			p.CrossRate, err = strconv.ParseFloat(v, 64)
		case "window":
			var ms float64
			ms, err = strconv.ParseFloat(v, 64)
			p.Window = time.Duration(ms * float64(time.Millisecond))
		default:
			return Profile{}, 0, fmt.Errorf("chaos: unknown key %q", k)
		}
		if err != nil {
			return Profile{}, 0, fmt.Errorf("chaos: bad value for %s: %v", k, err)
		}
	}
	if p.Cuts == 0 && p.Flaps == 0 && p.SwitchKills == 0 &&
		p.LossRate == 0 && p.TruncRate == 0 && p.CrossRate == 0 {
		// Bare "seed=N" gets a default mixed fault load.
		p.Cuts, p.Flaps, p.LossRate = 1, 1, 0.02
	}
	return p, seed, nil
}

// Structural reports whether the profile is free of stochastic per-probe
// rates. Only structural schedules resume deterministically across a
// process restart: the stochastic rolls key on the injector's probe
// sequence number, which restarts from zero with the process.
func (p Profile) Structural() bool {
	return p.LossRate == 0 && p.TruncRate == 0 && p.CrossRate == 0
}
