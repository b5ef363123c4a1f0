package faults

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

func TestParseProfileGrammar(t *testing.T) {
	p, seed, err := ParseProfile("seed=9,cuts=2,flaps=1,kills=1,restart=true,loss=0.25,trunc=0.5,cross=0.125,window=2.5")
	if err != nil {
		t.Fatal(err)
	}
	if seed != 9 {
		t.Errorf("seed = %d, want 9", seed)
	}
	want := Profile{
		Cuts: 2, Flaps: 1, SwitchKills: 1, Restart: true,
		LossRate: 0.25, TruncRate: 0.5, CrossRate: 0.125,
		Window: 2500 * time.Microsecond, Protect: topology.None,
	}
	if p != want {
		t.Errorf("profile = %+v, want %+v", p, want)
	}
}

func TestParseProfileDefaultsAndErrors(t *testing.T) {
	// A bare seed gets the default mixed load.
	p, seed, err := ParseProfile("seed=3")
	if err != nil {
		t.Fatal(err)
	}
	if seed != 3 || p.Cuts != 1 || p.Flaps != 1 || p.LossRate != 0.02 {
		t.Errorf("bare seed: got seed=%d %+v", seed, p)
	}
	if p.Protect != topology.None {
		t.Errorf("Protect = %v, want None", p.Protect)
	}
	for _, bad := range []string{"cuts", "bogus=1", "cuts=x", "seed=-1"} {
		if _, _, err := ParseProfile(bad); err == nil {
			t.Errorf("ParseProfile(%q) accepted", bad)
		}
	}
	// Values that parse as numbers but name no fault load: the error must
	// name the offending key.
	for _, c := range []struct{ spec, key string }{
		{"seed=1,cuts=-3", "cuts"},
		{"seed=1,flaps=-1", "flaps"},
		{"seed=1,kills=-2", "kills"},
		{"seed=1,loss=NaN", "loss"},
		{"seed=1,loss=-0.5", "loss"},
		{"seed=1,loss=1.5", "loss"},
		{"seed=1,trunc=Inf", "trunc"},
		{"seed=1,cross=-0", ""},
		{"seed=1,cross=2", "cross"},
		{"seed=1,window=-4", "window"},
		{"seed=1,window=NaN", "window"},
		{"seed=1,window=Inf", "window"},
		{"seed=1,window=1e300", "window"},
	} {
		_, _, err := ParseProfile(c.spec)
		switch {
		case c.key == "" && err != nil:
			t.Errorf("ParseProfile(%q): %v", c.spec, err)
		case c.key != "" && err == nil:
			t.Errorf("ParseProfile(%q) accepted", c.spec)
		case c.key != "" && !strings.Contains(err.Error(), c.key):
			t.Errorf("ParseProfile(%q): error %q does not name %s", c.spec, err, c.key)
		}
	}
	// The bounds themselves are valid.
	p, _, err = ParseProfile("seed=1,cuts=0,loss=1,trunc=0,cross=1,window=0")
	if err != nil || p.LossRate != 1 || p.CrossRate != 1 || p.Window != 0 {
		t.Errorf("bounds: %+v, %v", p, err)
	}
}

// FuzzParseProfile: the chaos grammar never panics, and every profile it
// accepts is a fault load Generate can draw — counts non-negative, rates in
// [0, 1], the window non-negative.
func FuzzParseProfile(f *testing.F) {
	for _, s := range []string{
		"seed=7", "seed=3,cuts=2,flaps=1,loss=0.02",
		"seed=9,cuts=2,flaps=1,kills=1,restart=true,loss=0.25,trunc=0.5,cross=0.125,window=2.5",
		"cuts=-3", "loss=NaN", "loss=-0.5", "window=-4", "window=1e300", "cuts", "", ",",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, _, err := ParseProfile(spec)
		if err != nil {
			return
		}
		if p.Cuts < 0 || p.Flaps < 0 || p.SwitchKills < 0 {
			t.Fatalf("ParseProfile(%q) accepted a negative count: %+v", spec, p)
		}
		for _, r := range []float64{p.LossRate, p.TruncRate, p.CrossRate} {
			if !(r >= 0 && r <= 1) {
				t.Fatalf("ParseProfile(%q) accepted rate %v: %+v", spec, r, p)
			}
		}
		if p.Window < 0 {
			t.Fatalf("ParseProfile(%q) accepted window %v", spec, p.Window)
		}
	})
}

func TestProfileStructural(t *testing.T) {
	cases := []struct {
		spec string
		want bool
	}{
		{"seed=1,cuts=2", true},
		{"seed=1,kills=1,restart=true", true},
		{"seed=1,cuts=1,loss=0.1", false},
		{"seed=1,cuts=1,trunc=0.1", false},
		{"seed=1,cuts=1,cross=0.1", false},
		{"seed=1", false}, // default load includes loss
	}
	for _, c := range cases {
		p, _, err := ParseProfile(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Structural(); got != c.want {
			t.Errorf("Structural(%q) = %v, want %v", c.spec, got, c.want)
		}
	}
}

// TestSetOnRecordHook: the suspicion hook observes exactly the records
// the injector logs, in order, and a nil hook uninstalls cleanly.
func TestSetOnRecordHook(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := topology.MustRing(8, 1, rng)
	sn := simnet.NewDefault(n)
	sched := Generate(n, 5, Profile{Cuts: 1, Protect: topology.None})
	inj := NewInjector(sn, sched)
	var seen []string
	inj.SetOnRecord(func(r Record) { seen = append(seen, r.What) })
	inj.ApplyAll()
	if len(seen) == 0 {
		t.Fatal("hook saw no records")
	}
	log := inj.Log()
	if len(seen) != len(log) {
		t.Fatalf("hook saw %d records, log has %d", len(seen), len(log))
	}
	for i, r := range log {
		if seen[i] != r.What {
			t.Errorf("record %d: hook saw %q, log says %q", i, seen[i], r.What)
		}
	}
	cut := false
	for _, w := range seen {
		if strings.HasPrefix(w, "link-cut") && !strings.HasSuffix(w, "-noop") {
			cut = true
		}
	}
	if !cut {
		t.Errorf("no applied link-cut in %v", seen)
	}
	inj.SetOnRecord(nil) // must not panic on further records
	inj.Advance(time.Hour)
}
