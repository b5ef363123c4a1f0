package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// goldenDir is the fixture tree with one deliberate hotpath finding and one
// out-of-scope determinism finding that must be filtered.
func goldenDir(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", "..", "internal", "analysis", "testdata", "src", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestJSONGolden locks the -json contract: two runs are byte-identical, and
// both match the checked-in golden file. Regenerate with
//
//	cd internal/analysis/testdata/src/golden && go run sanmap/cmd/sanlint -json > ../../../../../cmd/sanlint/testdata/golden.json
func TestJSONGolden(t *testing.T) {
	dir := goldenDir(t)
	var first, second, stderr bytes.Buffer
	if code := run(dir, []string{"-json"}, &first, &stderr); code != 1 {
		t.Fatalf("first run: exit code = %d, want 1 (findings); stderr: %s", code, stderr.String())
	}
	if code := run(dir, []string{"-json"}, &second, &stderr); code != 1 {
		t.Fatalf("second run: exit code = %d, want 1 (findings)", code)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("-json output differs between two runs:\n--- first ---\n%s\n--- second ---\n%s", first.String(), second.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), want) {
		t.Fatalf("-json output diverged from testdata/golden.json (regenerate if intentional):\n--- got ---\n%s\n--- want ---\n%s", first.String(), want)
	}
}

// TestJSONFindings sanity-checks the analyzer coverage of the golden tree:
// exactly one hotpath finding, determinism filtered by scope.
func TestJSONFindings(t *testing.T) {
	var out, stderr bytes.Buffer
	run(goldenDir(t), nil, &out, &stderr)
	text := out.String()
	if got := strings.Count(text, ": hotpath: "); got != 1 {
		t.Errorf("golden tree: %d hotpath findings, want 1\noutput:\n%s", got, text)
	}
	if strings.Contains(text, "determinism") {
		t.Errorf("determinism finding leaked through the scope filter:\n%s", text)
	}
}

// TestFactDebug locks the -fact-debug contract: deterministic output that
// includes the cross-analyzer fact tables.
func TestFactDebug(t *testing.T) {
	dir := goldenDir(t)
	var first, second, stderr bytes.Buffer
	run(dir, []string{"-fact-debug"}, &first, &stderr)
	run(dir, []string{"-fact-debug"}, &second, &stderr)
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("-fact-debug output differs between two runs:\n--- first ---\n%s\n--- second ---\n%s", first.String(), second.String())
	}
	for _, want := range []string{
		"fact hotpath ",
		"allocfree",
		"fact determinism ",
		"reaches stamp -> time.Now",
	} {
		if !strings.Contains(first.String(), want) {
			t.Errorf("-fact-debug output missing %q:\n%s", want, first.String())
		}
	}
}

// TestList covers -list: both analyzers, no loading.
func TestList(t *testing.T) {
	var out, stderr bytes.Buffer
	if code := run(t.TempDir(), []string{"-list"}, &out, &stderr); code != 0 {
		t.Fatalf("-list: exit code = %d, want 0", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if want := []string{"determinism", "hotpath"}; !slices.Equal(names, want) {
		t.Errorf("-list names %v, want %v:\n%s", names, want, out.String())
	}
}
