package routes

import (
	"fmt"
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

// writeAll builds every leaf of tab and writes every row, as a consumer
// that walks every pair does.
func writeAll(tab *Table) *Table {
	tab.Pairs(func(_, _ topology.NodeID, _ Path) {})
	return tab
}

// sameArenas reports whether two tables built on one network hold the same
// row starts and, leaf by leaf, the same cells and turn arenas.
func sameArenas(a, b *Table) bool {
	if !slices.Equal(a.start, b.start) || len(a.leaf) != len(b.leaf) {
		return false
	}
	for l := range a.leaf {
		if !slices.Equal(a.leaf[l].cells, b.leaf[l].cells) || !slices.Equal(a.leaf[l].turns, b.leaf[l].turns) {
			return false
		}
	}
	return true
}

// TestComputeSameAtAnyGOMAXPROCS: Compute builds serially, and the table
// must not depend on GOMAXPROCS — a guard against a parallel fill coming
// back without byte-identical output. Every leaf is built and every row
// written first (both otherwise wait for a first read, and two unbuilt
// tables would compare equal), then the row starts and each leaf's cells
// and turn arena are compared with the GOMAXPROCS 1 build.
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
			if !sameArenas(tab, want) {
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
			if !sameArenas(lazy, eager) {
				t.Fatalf("%s: leaves built concurrently leave different arenas", spec)
			}
		}
	}
}

// turnWires follows turns from src's host wire on net, as §2.2 reads a
// source route: at each switch, out port = in port + turn.
func turnWires(net *topology.Network, src topology.NodeID, turns simnet.Route) []int {
	wires := []int{net.WireAt(src, topology.HostPort)}
	at, _ := net.Neighbor(src, topology.HostPort)
	for _, x := range turns {
		out := at.Port + int(x)
		wires = append(wires, net.WireAt(at.Node, out))
		at, _ = net.Neighbor(at.Node, out)
	}
	return wires
}

// lazyCase is one table to build lazily and compare with its eager build.
type lazyCase struct {
	name  string
	net   *topology.Network
	lazy  func() (*Table, error)
	eager func() (*eagerTable, error)
}

// lazyCases: every generator × 3 seeds, from the natural root, from a
// forced (seeded) root switch and as ShortestPaths tables, and healed maps
// (a session's Remap after seeded cuts) both ways.
func lazyCases(t *testing.T) []lazyCase {
	t.Helper()
	var cases []lazyCase
	add := func(name string, net *topology.Network, cfg Config) {
		cases = append(cases,
			lazyCase{name, net, func() (*Table, error) { return Compute(net, cfg) }, func() (*eagerTable, error) { return eagerCompute(net, cfg) }},
			lazyCase{name + " shortest", net, func() (*Table, error) { return ShortestPaths(net) }, func() (*eagerTable, error) { return eagerShortestPaths(net) }})
	}
	for _, spec := range diffSpecs {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			res, err := genspec.Build(spec, rng)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			add(spec, res.Net, DefaultConfig())
			sw := res.Net.Switches()
			forced := Config{Root: sw[rng.Intn(len(sw))]}
			cases = append(cases, lazyCase{spec + " forced root", res.Net,
				func() (*Table, error) { return Compute(res.Net, forced) },
				func() (*eagerTable, error) { return eagerCompute(res.Net, forced) }})
		}
	}
	for _, spec := range []string{"fattree2:8x2", "dragonfly:2,2,2"} {
		for seed := uint64(1); seed <= 3; seed++ {
			_, healed := healedMap(t, spec, seed)
			add(spec+" healed", healed.Network, DefaultConfig())
		}
	}
	return cases
}

// TestLazyLeavesMatchEager: tables whose leaves are built by first lookups
// — from GOMAXPROCS goroutines (at least two), each taking the sources in
// its own shuffled order, so leaves are built in shuffled order and
// concurrently — give the same Route bytes and WirePath walks for every
// ordered pair as the eager construction, and Pairs then visits the same
// routes. Under the race lane it also checks that a leaf built by one
// goroutine is published safely to lookups on others.
func TestLazyLeavesMatchEager(t *testing.T) {
	for _, c := range lazyCases(t) {
		tab, err := c.lazy()
		want, werr := c.eager()
		if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
			t.Fatalf("%s: lazy error %v, eager %v", c.name, err, werr)
		}
		if err != nil {
			continue
		}
		hosts := c.net.Hosts()
		var wg sync.WaitGroup
		errs := make(chan string, 1)
		for g := range max(2, runtime.GOMAXPROCS(0)) {
			order := slices.Clone(hosts)
			rand.New(rand.NewSource(int64(g))).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, s := range order {
					for _, d := range hosts {
						var got simnet.Route
						if g%2 == 0 {
							got, _ = tab.Route(s, d)
						} else {
							p, _ := tab.WirePath(s, d)
							got = p.Route()
						}
						if w, _ := want.Route(s, d); !slices.Equal(got, w) {
							select {
							case errs <- fmt.Sprintf("%s: first reads give %d->%d route %v, eager %v", c.name, s, d, got, w):
							default:
							}
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
		for _, s := range hosts {
			for _, d := range hosts {
				w, wok := want.Route(s, d)
				p, ok := tab.WirePath(s, d)
				if ok != wok || !slices.Equal(p.Route(), w) {
					t.Fatalf("%s: WirePath(%d,%d) = %v,%v, eager %v,%v", c.name, s, d, p.Route(), ok, w, wok)
				}
				if ok && !slices.Equal(walked(t, c.net, s, d, p), turnWires(c.net, s, w)) {
					t.Fatalf("%s: WirePath(%d,%d) walks %v, the eager route %v", c.name, s, d, walked(t, c.net, s, d, p), turnWires(c.net, s, w))
				}
			}
		}
		tab.Pairs(func(s, d topology.NodeID, p Path) {
			if w, _ := want.Route(s, d); !slices.Equal(p.Route(), w) {
				t.Fatalf("%s: Pairs gives %d->%d route %v, eager %v", c.name, s, d, p.Route(), w)
			}
		})
		if tab.b != nil {
			t.Fatalf("%s: every leaf built, and the build state is kept", c.name)
		}
	}
}

// TestComputeBuildsNoLeaf: Compute builds no leaf, and one lookup builds
// its source's leaf alone and writes its source's row alone; every other
// row, its leaf siblings' too, is still unwritten, and a lookup from a
// sibling then builds nothing more.
func TestComputeBuildsNoLeaf(t *testing.T) {
	res, err := genspec.Build("fattree2:8x2", nil)
	if err != nil {
		t.Fatal(err)
	}
	tab := computeOn(t, res.Net, DefaultConfig())
	for l, lf := range tab.leaf {
		if lf.turns != nil || lf.cells != nil {
			t.Fatalf("Compute built leaf %d", l)
		}
	}
	hosts := res.Net.Hosts()
	src := hosts[len(hosts)/2]
	if _, ok := tab.Route(src, hosts[0]); !ok {
		t.Fatal("no route")
	}
	si := tab.ord[src].at
	mine := tab.lord[si]
	for l, lf := range tab.leaf {
		if built := lf.turns != nil; built != (int32(l) == mine) {
			t.Fatalf("leaf %d built %v after one lookup from a host on leaf %d", l, built, mine)
		}
	}
	if lf := tab.ord[src].lf; lf.first != si {
		t.Fatalf("host %d's row is not the one its leaf's next rows are copied from", src)
	}
	for _, s := range hosts {
		if got := tab.ord[s].row.Load() >= 0; got != (s == src) {
			t.Fatalf("row of host %d marked written %v after one lookup from host %d", s, got, src)
		}
	}
	lf, H := tab.ord[src].lf, len(hosts)
	for di, s := range hosts {
		if s == src || tab.lord[di] != mine {
			continue
		}
		row := lf.turns[uint32(tab.ord[s].rank)*lf.cells[H]:][:lf.cells[H]]
		if slices.ContainsFunc(row, func(x simnet.Turn) bool { return x != 0 }) {
			t.Fatalf("row of host %d written though only host %d was looked up", s, src)
		}
		if _, ok := tab.Route(s, hosts[0]); !ok {
			t.Fatal("no route")
		}
		break
	}
	for l, lf := range tab.leaf {
		if built := lf.turns != nil; built != (int32(l) == mine) {
			t.Fatalf("a lookup from a leaf sibling built leaf %d", l)
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
