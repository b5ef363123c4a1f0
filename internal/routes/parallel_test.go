package routes

import (
	"math/rand"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"sanmap/internal/genspec"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// writeAll writes every row of tab, as a consumer that walks every pair
// does.
func writeAll(tab *Table) *Table {
	tab.Pairs(func(_, _ topology.NodeID, _ Path) {})
	return tab
}

// TestComputeSameAtAnyGOMAXPROCS: Compute builds serially, and the table
// must not depend on GOMAXPROCS — a guard against a parallel fill coming
// back without byte-identical output. Every row is written first (rows are
// otherwise written on first read, and two unwritten arenas would compare
// equal), then the cells, the row starts and the turn arena are compared
// with the GOMAXPROCS 1 build.
func TestComputeSameAtAnyGOMAXPROCS(t *testing.T) {
	nets := map[string]*topology.Network{}
	for _, spec := range []string{"fattree2:32x4", "now-cab"} {
		res, err := genspec.Build(spec, rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		nets[spec] = res.Net
	}
	_, healed := healedMap(t, "dragonfly:2,2,2", 2)
	nets["healed dragonfly:2,2,2"] = healed.Network

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, net := range nets {
		var want *Table
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			tab := writeAll(computeOn(t, net, DefaultConfig()))
			if want == nil {
				want = tab
				continue
			}
			if !slices.Equal(tab.cells, want.cells) || !slices.Equal(tab.start, want.start) || !slices.Equal(tab.turns, want.turns) {
				t.Fatalf("%s: GOMAXPROCS %d builds a different table than GOMAXPROCS 1", name, procs)
			}
		}
	}
}

// TestConcurrentFirstReads: goroutines read a fresh table's rows for the
// first time, each in its own order and by its own lookup, and every route
// they read — and the arena they leave — equals an eagerly written copy.
// Run under the race lane, it also checks that row writes are published
// safely to readers on other goroutines.
func TestConcurrentFirstReads(t *testing.T) {
	for _, spec := range []string{"fattree2:32x4", "torus:3x4"} {
		res, err := genspec.Build(spec, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		for _, build := range []func(*topology.Network) (*Table, error){
			func(n *topology.Network) (*Table, error) { return Compute(n, DefaultConfig()) },
			ShortestPaths,
		} {
			eager, err := build(res.Net)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			writeAll(eager)
			lazy, _ := build(res.Net)
			hosts := res.Net.Hosts()
			var wg sync.WaitGroup
			errs := make(chan string, 4)
			for g := range 4 {
				order := slices.Clone(hosts)
				rand.New(rand.NewSource(int64(g))).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, s := range order {
						for _, d := range hosts {
							var got simnet.Route
							if g%2 == 0 {
								r, _ := lazy.Route(s, d)
								got = r
							} else {
								p, _ := lazy.WirePath(s, d)
								got = p.Route()
							}
							if want, _ := eager.Route(s, d); !slices.Equal(got, want) {
								errs <- spec + ": a first read disagrees with the eager table"
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for e := range errs {
				t.Fatal(e)
			}
			if !slices.Equal(lazy.turns, eager.turns) {
				t.Fatalf("%s: rows written concurrently leave a different arena", spec)
			}
		}
	}
}

// TestComputeWritesNoRow: Compute writes the templates and places the
// rows but allocates no arena, and one lookup writes its source's row
// alone; every other row, its leaf siblings' too, is still unwritten.
func TestComputeWritesNoRow(t *testing.T) {
	res, err := genspec.Build("fattree2:8x2", nil)
	if err != nil {
		t.Fatal(err)
	}
	tab := computeOn(t, res.Net, DefaultConfig())
	if tab.turns != nil {
		t.Fatalf("Compute allocated a %d-turn arena", len(tab.turns))
	}
	hosts := res.Net.Hosts()
	src := hosts[len(hosts)/2]
	if _, ok := tab.Route(src, hosts[0]); !ok {
		t.Fatal("no route")
	}
	if len(tab.turns) != tab.size {
		t.Fatalf("arena of %d turns, want %d", len(tab.turns), tab.size)
	}
	if si := tab.ord[src].at; tab.written[tab.lord[si]] != si {
		t.Fatalf("host %d's row is not the one its leaf's next rows are copied from", src)
	}
	H := len(hosts)
	for si, s := range hosts {
		if got := tab.ord[s].row.Load() >= 0; got != (s == src) {
			t.Fatalf("row of host %d marked written %v after one lookup from host %d", s, got, src)
		}
		if s == src {
			continue
		}
		lo := tab.start[si]
		hi := lo + tab.cells[int(tab.ord[s].cells)+H]
		if slices.ContainsFunc(tab.turns[lo:hi], func(x simnet.Turn) bool { return x != 0 }) {
			t.Fatalf("row of host %d written though only host %d was looked up", s, src)
		}
	}
}

// TestSpanInlined: a lookup whose row is written takes no call, because
// span, which checks for the row, stays within the compiler's inlining
// budget (a lookup that calls it measured 20-30 % slower per lookup); and
// pairs does too, so the callbacks of the package's walks over every pair
// inline with it (without, VerifyUpDown and VerifyDeadlockFree measured
// 10-50 % slower).
func TestSpanInlined(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to ask")
	}
	out, err := exec.Command(gobin, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, want := range []string{"can inline (*Table).span", "can inline Path.Route", "can inline (*Table).pairs"} {
		if !strings.Contains(string(out), want+"\n") {
			t.Errorf("the compiler no longer says %q", want)
		}
	}
}
