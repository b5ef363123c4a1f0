package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestFig3Exact: component counts must match the paper exactly.
func TestFig3Exact(t *testing.T) {
	for _, r := range Fig3() {
		if r.Measured != r.Paper {
			t.Errorf("subcluster %s: %+v, paper %+v", r.Subcluster, r.Measured, r.Paper)
		}
	}
}

// TestFig4And5Render: the map figures render with plausible content.
func TestFig4And5Render(t *testing.T) {
	ascii, dotSrc, err := Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ascii, "36 hosts, 13 switches, 64 links") {
		t.Errorf("fig 4 summary wrong:\n%s", ascii)
	}
	if !strings.Contains(dotSrc, "graph") {
		t.Error("fig 4 DOT missing")
	}
	ascii5, _, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ascii5, "100 hosts, 40 switches, 193 links") {
		t.Errorf("fig 5 summary wrong:\n%s", ascii5)
	}
}

// TestFig6Shape: the reproduction bands — hit ratios in the tens of
// percent, declining host ratio with system size, total probes growing
// superlinearly but staying within ~3x of the paper's totals.
func TestFig6Shape(t *testing.T) {
	rows, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	for i, r := range rows {
		total := r.HostProbes + r.SwitchProbes
		paperTotal := r.PaperHostProbes + r.PaperSwitchProbes
		if total < paperTotal/3 || total > paperTotal*3 {
			t.Errorf("%s: total probes %d outside 3x band of paper's %d", r.System, total, paperTotal)
		}
		if i > 0 {
			prev := rows[i-1]
			if total <= prev.HostProbes+prev.SwitchProbes {
				t.Errorf("probe totals must grow with system size")
			}
		}
	}
	// Host hit ratio declines from C to C+A+B (paper: 53% -> 40%).
	first := float64(rows[0].HostHits) / float64(rows[0].HostProbes)
	last := float64(rows[2].HostHits) / float64(rows[2].HostProbes)
	if last >= first {
		t.Errorf("host hit ratio should decline with size: %.2f -> %.2f", first, last)
	}
}

// TestFig7Shape: times grow with system size; election is slower than
// master on every system; magnitudes within 3x of the paper's averages.
func TestFig7Shape(t *testing.T) {
	rows, err := Fig7Sweep(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	paperAvg := map[string][2]time.Duration{
		"C":     {256 * time.Millisecond, 278 * time.Millisecond},
		"C+A":   {522 * time.Millisecond, 577 * time.Millisecond},
		"C+A+B": {1011 * time.Millisecond, 1298 * time.Millisecond},
	}
	var prevMaster time.Duration
	for i := range rows {
		r := &rows[i]
		if r.Election.Avg() <= r.Master.Avg() {
			t.Errorf("%s: election (%v) should be slower than master (%v)",
				r.System, r.Election.Avg(), r.Master.Avg())
		}
		if r.Master.Avg() <= prevMaster {
			t.Errorf("%s: times should grow with system size", r.System)
		}
		prevMaster = r.Master.Avg()
		ref := paperAvg[r.System]
		if got := r.Master.Avg(); got < ref[0]/3 || got > ref[0]*3 {
			t.Errorf("%s master avg %v outside 3x of paper %v", r.System, got, ref[0])
		}
		if got := r.Election.Avg(); got < ref[1]/3 || got > ref[1]*3 {
			t.Errorf("%s election avg %v outside 3x of paper %v", r.System, got, ref[1])
		}
	}
}

// TestFig8Shape: the model graph peaks well above the actual node count and
// the final prune lands on exactly the actual core (140 nodes, 193 edges).
func TestFig8Shape(t *testing.T) {
	series, err := Fig8Obs(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for _, s := range series {
		if s.Vertices > peak {
			peak = s.Vertices
		}
	}
	last := series[len(series)-1]
	if last.Vertices != 140 || last.Edges != 193 {
		t.Errorf("final model %d nodes / %d edges, want 140/193", last.Vertices, last.Edges)
	}
	if peak < 2*140 {
		t.Errorf("peak model nodes %d; expected substantial replication before merging", peak)
	}
	if last.Frontier != 0 {
		t.Errorf("frontier %d at completion", last.Frontier)
	}
}

// TestFig9Shape: adding responders speeds mapping up dramatically; the
// final point is the fastest; random placement converges faster than
// subcluster order early on.
func TestFig9Shape(t *testing.T) {
	ordered, random, err := Fig9Sweep(20, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	first, last := ordered[0].Time, ordered[len(ordered)-1].Time
	if speedup := float64(first) / float64(last); speedup < 4 {
		t.Errorf("responder speedup %.1fx; paper saw ~8x", speedup)
	}
	// At the same responder count early in the sweep, random placement
	// should not be slower than subcluster order (it spreads anchors).
	if len(random) > 1 && len(ordered) > 1 {
		if random[1].Time > ordered[1].Time*2 {
			t.Errorf("random placement much slower than ordered at k=%d: %v vs %v",
				random[1].Responders, random[1].Time, ordered[1].Time)
		}
	}
}

// TestFig10Shape: the Myricom algorithm sends several times the Berkeley
// algorithm's messages, comparisons dominate at scale, and the ratio grows
// into the paper's band.
func TestFig10Shape(t *testing.T) {
	rows, err := Fig10Sweep()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		ratio := float64(r.Stats.Total()) / float64(r.Berkeley)
		if ratio < 2 || ratio > 12 {
			t.Errorf("%s: message ratio %.1f outside plausible band (paper 3.2-5.4)", r.System, ratio)
		}
		if r.Stats.Compare < r.Stats.Loop+r.Stats.Host+r.Stats.Switch {
			t.Errorf("%s: comparisons should dominate: %+v", r.System, r.Stats)
		}
	}
	// Comparison probes grow superlinearly (paper: 450 -> 1234 -> 5089).
	if !(rows[0].Stats.Compare < rows[1].Stats.Compare && rows[1].Stats.Compare < rows[2].Stats.Compare) {
		t.Error("comparison counts should grow with system size")
	}
}

// TestRoutesReport: the §5.5 pipeline verifies end to end.
func TestRoutesReport(t *testing.T) {
	report, err := RoutesReport()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "9900 ordered host pairs") {
		t.Errorf("unexpected report:\n%s", report)
	}
	if !strings.Contains(report, "verified") {
		t.Errorf("missing verification line:\n%s", report)
	}
}

// TestFormatters smoke-tests every report renderer against live data so the
// sanexp output paths stay covered.
func TestFormatters(t *testing.T) {
	if out := FormatFig3(Fig3()); !strings.Contains(out, "Fig 3") {
		t.Error("FormatFig3")
	}
	rows6, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if out := FormatFig6(rows6); !strings.Contains(out, "ratio") {
		t.Error("FormatFig6")
	}
	rows7, err := Fig7Sweep(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if out := FormatFig7(rows7); !strings.Contains(out, "master") {
		t.Error("FormatFig7")
	}
	s8, err := Fig8Obs(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out := FormatFig8(s8); !strings.Contains(out, "peak model nodes") {
		t.Error("FormatFig8")
	}
	ordered, random, err := Fig9Sweep(40, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out := FormatFig9(ordered, random); !strings.Contains(out, "speedup") {
		t.Error("FormatFig9")
	}
	rows10, err := Fig10Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if out := FormatFig10(rows10); !strings.Contains(out, "Berkeley") {
		t.Error("FormatFig10")
	}
}
