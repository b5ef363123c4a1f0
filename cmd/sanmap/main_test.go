package main

import (
	"strings"
	"testing"
)

// TestCheckWindow: a window above 1 is accepted exactly where a probe
// window is opened, and a refusal names what does take one.
func TestCheckWindow(t *testing.T) {
	for _, c := range []struct {
		window int
		algo   string
		chaos  bool
		ok     bool
	}{
		{1, "berkeley", false, true},
		{1, "myricom", false, true},
		{1, "label", false, true},
		{1, "berkeley", true, true},
		{0, "myricom", true, true},
		{8, "berkeley", false, true},
		{8, "random", false, true},
		{8, "nonesuch", false, true}, // runAlgo's error to report, not this one's
		{8, "myricom", false, false},
		{8, "label", false, false},
		{2, "berkeley", true, false},
		{8, "myricom", true, false},
	} {
		err := checkWindow(c.window, c.algo, c.chaos)
		if (err == nil) != c.ok {
			t.Errorf("checkWindow(%d, %q, chaos=%v) = %v, want ok=%v", c.window, c.algo, c.chaos, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "-algo berkeley and -algo random") {
			t.Errorf("checkWindow(%d, %q, chaos=%v): %q does not name what takes a window", c.window, c.algo, c.chaos, err)
		}
	}
}
