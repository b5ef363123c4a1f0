package simnet

import (
	"testing"
	"time"
)

// missProbe is a probe no network in probeNet answers (turn 7 off the first
// switch is unwired there), so every submission costs the full timeout.
var missProbe = Probe{Kind: ProbeHost, Route: Route{7}}

func TestBackoffChargesVirtualTime(t *testing.T) {
	plain, ph0, _ := probeNet(t)
	backed, bh0, _ := probeNet(t)

	wPlain := NewProbeWindow(plain.Endpoint(ph0), WindowConfig{Window: 1, Retries: 2})
	wBacked := NewProbeWindow(backed.Endpoint(bh0), WindowConfig{
		Window: 1, Retries: 2,
		Backoff: time.Millisecond, Seed: 9,
	})
	wPlain.DoOne(missProbe)
	wBacked.DoOne(missProbe)

	bs := wBacked.Stats()
	if bs.BackoffWait <= 0 {
		t.Fatalf("backoff retries recorded no wait: %+v", bs)
	}
	// The waits advance the transport's virtual clock (Prober.Sleep) and are
	// charged to TimeoutCost on top of the miss timeouts.
	if got, want := backed.Clock()-plain.Clock(), bs.BackoffWait; got != want {
		t.Errorf("clock advanced by %v, BackoffWait says %v", got, want)
	}
	if bs.TimeoutCost != wPlain.Stats().TimeoutCost+bs.BackoffWait {
		t.Errorf("TimeoutCost %v does not include backoff (plain %v + wait %v)",
			bs.TimeoutCost, wPlain.Stats().TimeoutCost, bs.BackoffWait)
	}
	if bs.Retries != wPlain.Stats().Retries {
		t.Errorf("backoff changed the retry count: %d vs %d", bs.Retries, wPlain.Stats().Retries)
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) WindowStats {
		sn, h0, _ := probeNet(t)
		w := NewProbeWindow(sn.Endpoint(h0), WindowConfig{
			Window: 1, Retries: 3,
			Backoff: time.Millisecond, Seed: seed,
		})
		w.DoOne(missProbe)
		return w.Stats()
	}
	a, b := run(1), run(1)
	if a != b {
		t.Errorf("same seed, different schedules: %+v vs %+v", a, b)
	}
	c := run(2)
	if a.BackoffWait == c.BackoffWait {
		t.Errorf("different seeds drew identical jitter %v — jitter looks unseeded", a.BackoffWait)
	}
}

func TestBackoffCapBoundsGrowth(t *testing.T) {
	sn, h0, _ := probeNet(t)
	base := 100 * time.Microsecond
	cap := 200 * time.Microsecond
	w := NewProbeWindow(sn.Endpoint(h0), WindowConfig{
		Window: 1, Retries: 8,
		Backoff: base, BackoffCap: cap, Seed: 3,
	})
	w.DoOne(missProbe)
	// Worst case per wait is cap + ¼cap of jitter; 8 retries stay under
	// 8 × 1.25 × cap, where uncapped exponential growth would blow past it.
	if limit := time.Duration(8) * (cap + cap/4); w.Stats().BackoffWait > limit {
		t.Errorf("BackoffWait %v exceeds capped bound %v", w.Stats().BackoffWait, limit)
	}
}

func TestRouteBudgetStopsRetries(t *testing.T) {
	sn, h0, _ := probeNet(t)
	w := NewProbeWindow(sn.Endpoint(h0), WindowConfig{
		Window: 1, Retries: 4, RouteBudget: 3,
	})
	// Two passes over the same dead route: 4 retries would be spent per
	// pass, but the budget admits only 3 in total.
	w.DoOne(missProbe)
	w.DoOne(missProbe)
	st := w.Stats()
	if st.Retries != 3 {
		t.Errorf("route budget of 3 spent %d retries", st.Retries)
	}
	if st.BudgetDenied == 0 {
		t.Errorf("exhausted budget recorded no denials: %+v", st)
	}
}

func TestNoBackoffZeroIsByteIdentical(t *testing.T) {
	a, ah0, _ := probeNet(t)
	b, bh0, _ := probeNet(t)
	wa := NewProbeWindow(a.Endpoint(ah0), WindowConfig{Window: 2, Retries: 1})
	wb := NewProbeWindow(b.Endpoint(bh0), WindowConfig{Window: 2, Retries: 1, Seed: 77})
	probes := []Probe{missProbe, {Kind: ProbeSwitch, Route: Route{3}}}
	wa.Do(probes)
	wb.Do(probes)
	if a.Clock() != b.Clock() || a.Stats() != b.Stats() {
		t.Errorf("zero-backoff config with a seed diverged: clocks %v/%v", a.Clock(), b.Clock())
	}
	if wa.Stats().String() != wb.Stats().String() {
		t.Errorf("WindowStats rendering changed without backoff: %q vs %q",
			wa.Stats().String(), wb.Stats().String())
	}
}

// sleepRecorder wraps an endpoint transport and records every backoff
// wait the window realises, tagged with the virtual time it fired at.
type sleepRecorder struct {
	*Endpoint
	waits []time.Duration
	at    []time.Duration
}

func (r *sleepRecorder) Sleep(d time.Duration) {
	r.at = append(r.at, r.Endpoint.Clock())
	r.waits = append(r.waits, d)
	r.Endpoint.Sleep(d)
}

// TestBackoffJitterScheduleDeterministic replays the same probe load on
// two same-seed windows and requires the full retry schedule — each
// backoff duration and the virtual instant it was charged at — to match
// exactly, not just the aggregate stats. This is the property sanmapd's
// crash/restart harness leans on: a resumed run re-derives the identical
// virtual-time schedule.
func TestBackoffJitterScheduleDeterministic(t *testing.T) {
	run := func(seed uint64) ([]time.Duration, []time.Duration) {
		sn, h0, _ := probeNet(t)
		rec := &sleepRecorder{Endpoint: sn.Endpoint(h0)}
		w := NewProbeWindow(rec, WindowConfig{
			Window: 1, Retries: 4,
			Backoff: time.Millisecond, BackoffCap: 4 * time.Millisecond, Seed: seed,
		})
		w.DoOne(missProbe)
		w.DoOne(Probe{Kind: ProbeSwitch, Route: Route{7}})
		w.DoOne(missProbe)
		return rec.waits, rec.at
	}
	w1, at1 := run(42)
	w2, at2 := run(42)
	if len(w1) == 0 {
		t.Fatal("no backoff waits recorded — misses are not retrying")
	}
	if len(w1) != len(w2) {
		t.Fatalf("same seed, different retry counts: %d vs %d", len(w1), len(w2))
	}
	for i := range w1 {
		if w1[i] != w2[i] || at1[i] != at2[i] {
			t.Fatalf("retry %d diverged: %v@%v vs %v@%v", i, w1[i], at1[i], w2[i], at2[i])
		}
	}
	// A different seed must produce a different jitter schedule (same
	// count — the load is identical — but different waits).
	w3, _ := run(43)
	same := len(w3) == len(w1)
	if same {
		for i := range w1 {
			if w1[i] != w3[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("seeds 42 and 43 drew identical schedules — jitter looks unseeded")
	}
}
