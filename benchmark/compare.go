package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	verdictMismatch   = "exact-mismatch"
)

// judge compares one metric between two result files. Bounds and spreads are
// shares of A's value. A metric without a bound (per-layer) is reported with
// its delta and never fails the comparison.
func judge(a, b *metric) (delta float64, verdict string) {
	if a.Exact {
		if a.Value != b.Value {
			return b.Value - a.Value, verdictMismatch
		}
		return 0, verdictOK
	}
	if a.Value == 0 {
		return 0, verdictOK
	}
	delta = (b.Value - a.Value) / math.Abs(a.Value)
	worse := delta
	if a.Better == "higher" {
		worse = -delta
	}
	spread := math.Max(a.Q3-a.Q1, b.Q3-b.Q1) / math.Abs(a.Value)
	switch {
	case a.Bound == 0:
		return delta, verdictOK
	case spread > a.Bound:
		// Neither "unchanged" nor "regressed" can be told from two sets
		// whose own spread is wider than the bound.
		return delta, verdictUnresolved
	case worse > a.Bound:
		return delta, verdictRegressed
	}
	return delta, verdictOK
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles prints one row per (metric, workload) present in both files
// and exits non-zero on a regression or an exact mismatch.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	fa, err := readResults(pathA)
	if err == nil {
		var fb *resultFile
		if fb, err = readResults(pathB); err == nil {
			return compareSets(fa, fb, stdout)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 2
}

func compareSets(fa, fb *resultFile, w io.Writer) int {
	fmt.Fprintf(w, "A: commit %s seed %d   B: commit %s seed %d\n", fa.Header.Commit, fa.Header.Seed, fb.Header.Commit, fb.Header.Seed)
	if fa.Header.Seed != fb.Header.Seed {
		fmt.Fprintln(w, "note: seeds differ, so exact metrics are expected to differ")
	}
	fmt.Fprintf(w, "%-16s %-34s %13s %13s %13s %13s %8s %7s  %s\n",
		"workload", "metric", "A value", "A iqr", "B value", "B iqr", "delta", "bound", "verdict")
	bad := 0
	for _, ra := range fa.Workloads {
		var rb *results
		for _, r := range fb.Workloads {
			if r.Workload == ra.Workload {
				rb = r
			}
		}
		if rb == nil {
			continue
		}
		for _, ma := range ra.Metrics {
			mb := rb.find(ma.Name)
			if mb == nil {
				continue
			}
			delta, verdict := judge(ma, mb)
			bound := "-"
			switch {
			case ma.Exact:
				bound = "exact"
			case ma.Bound > 0:
				bound = fmt.Sprintf("%.0f%%", 100*ma.Bound)
			}
			d := fmt.Sprintf("%+.1f%%", 100*delta)
			if ma.Exact {
				d = fmt.Sprintf("%+g", delta)
			}
			fmt.Fprintf(w, "%-16s %-34s %13.6g %13.6g %13.6g %13.6g %8s %7s  %s\n",
				ra.Workload, ma.Name, ma.Value, ma.Q3-ma.Q1, mb.Value, mb.Q3-mb.Q1, d, bound, verdict)
			if verdict == verdictRegressed || verdict == verdictMismatch {
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d row(s) regressed or mismatched\n", bad)
		return 1
	}
	return 0
}
