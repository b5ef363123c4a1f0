package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"sanmap/internal/topology"
)

// ParseProfile parses the fault spec shared by sanmap -chaos, sanmapd
// -chaos and sanmapd's inject op: comma-separated key=value pairs, e.g.
// "seed=7" or "seed=3,cuts=2,flaps=1,loss=0.02". Unknown keys are
// errors, and so are a negative count, a rate outside [0, 1] and a
// negative or non-finite window. A spec that names no fault at all (bare
// "seed=N") gets the default mixed load of one cut, one flap and 2% loss.
// Protect comes back as topology.None; callers that want the mapper's
// attachment switch shielded set it before Generate.
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
			p.Cuts, err = parseCount(v)
		case "flaps":
			p.Flaps, err = parseCount(v)
		case "kills":
			p.SwitchKills, err = parseCount(v)
		case "restart":
			p.Restart, err = strconv.ParseBool(v)
		case "loss":
			p.LossRate, err = parseRate(v)
		case "trunc":
			p.TruncRate, err = parseRate(v)
		case "cross":
			p.CrossRate, err = parseRate(v)
		case "window":
			p.Window, err = parseWindow(v)
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

// parseCount parses a non-negative event count.
func parseCount(v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err == nil && n < 0 {
		err = fmt.Errorf("%d is negative", n)
	}
	return n, err
}

// parseRate parses a per-probe probability, which must lie in [0, 1].
func parseRate(v string) (float64, error) {
	r, err := strconv.ParseFloat(v, 64)
	if err == nil && !(r >= 0 && r <= 1) {
		err = fmt.Errorf("%v is not in [0, 1]", r)
	}
	return r, err
}

// parseWindow parses a window in milliseconds: non-negative, and finite
// as a time.Duration.
func parseWindow(v string) (time.Duration, error) {
	ms, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	ns := ms * float64(time.Millisecond)
	if !(ns >= 0 && ns < math.MaxInt64) {
		return 0, fmt.Errorf("%v ms is negative or out of range", ms)
	}
	return time.Duration(ns), nil
}

// Structural reports whether the profile is free of stochastic per-probe
// rates. Only structural schedules resume deterministically across a
// process restart: the stochastic rolls key on the injector's probe
// sequence number, which restarts from zero with the process.
func (p Profile) Structural() bool {
	return p.LossRate == 0 && p.TruncRate == 0 && p.CrossRate == 0
}
