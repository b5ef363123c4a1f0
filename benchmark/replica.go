package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"sanmap/internal/faults"
	"sanmap/internal/genspec"
	"sanmap/internal/isomorph"
	"sanmap/internal/mapd"
	"sanmap/internal/mapper"
	"sanmap/internal/routes"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// truth is the harness's own copy of the fabric a daemon simulates, built
// from the same spec and seed through the same exported calls. Replies are
// checked against it: a served route must deliver on it, a served map must
// be isomorphic to its core.
type truth struct {
	net   *topology.Network
	sn    *simnet.Net
	h0    topology.NodeID
	hosts []string // attached hosts, in node order
}

// newTruth builds the fabric a daemon started with this run's -seed
// simulates: the daemon seeds its build through faults.NewSource.
func (b *bench) newTruth(gen string, t *track) (*truth, error) {
	return newTruth(gen, rand.New(faults.NewSource(uint64(b.opt.seed))), t)
}

func newTruth(gen string, rng *rand.Rand, t *track) (*truth, error) {
	t.begin("topology.build", 0)
	res, err := genspec.Build(gen, rng)
	t.end()
	if err != nil {
		return nil, err
	}
	tr := &truth{net: res.Net, h0: topology.None}
	for _, h := range res.Net.Hosts() {
		if res.Net.WireAt(h, topology.HostPort) >= 0 {
			tr.hosts = append(tr.hosts, res.Net.NameOf(h))
		}
	}
	// The daemon's choice of mapping host: the generator's utility host,
	// else the first attached host.
	if u := res.Net.Lookup(res.Utility); res.Utility != "" && u != topology.None &&
		res.Net.WireAt(u, topology.HostPort) >= 0 {
		tr.h0 = u
	} else if len(tr.hosts) > 0 {
		tr.h0 = res.Net.Lookup(tr.hosts[0])
	}
	if tr.h0 == topology.None || len(tr.hosts) < 2 {
		return nil, fmt.Errorf("%s: fewer than two attached hosts", gen)
	}
	tr.sn = simnet.NewDefault(res.Net)
	return tr, nil
}

// cut applies an inject spec exactly as the daemon's world loop does.
func (tr *truth) cut(spec string, t *track) error {
	t.begin("faults.generate", 0)
	p, seed, err := faults.ParseProfile(spec)
	if err != nil {
		t.end()
		return err
	}
	p.Protect = tr.h0
	sched := faults.Generate(tr.sn.Topology(), seed, p)
	t.end()
	t.begin("faults.apply", 0)
	faults.Attach(tr.sn, sched).ApplyAll()
	tr.sn.Reconfigure()
	t.end()
	return nil
}

// checkRoute evaluates a served route on the true fabric: it must deliver
// to the host the reply names.
func (tr *truth) checkRoute(rep reply) error {
	route, err := simnet.ParseRoute(rep.Route)
	if err != nil {
		return err
	}
	src := tr.net.Lookup(rep.From)
	if src == topology.None {
		return fmt.Errorf("reply names unknown host %q", rep.From)
	}
	res := tr.sn.Eval(src, route)
	if !res.OK() || tr.net.NameOf(res.Dest) != rep.To {
		return fmt.Errorf("route %s from %s does not deliver to %s (%v at %s)",
			rep.Route, rep.From, rep.To, res.Outcome, tr.net.NameOf(res.Dest))
	}
	return nil
}

// checkMap requires a served network text to be the map of the true fabric.
func (tr *truth) checkMap(netText string) error {
	served, err := topology.ReadFrom(bytes.NewReader([]byte(netText)))
	if err != nil {
		return err
	}
	return isomorph.MustEqualCore(served, tr.net)
}

// pairs draws n seeded ordered pairs of distinct attached hosts.
func (tr *truth) pairs(rng *rand.Rand, n int) [][2]string {
	out := make([][2]string, n)
	for i := range out {
		a := rng.Intn(len(tr.hosts))
		c := rng.Intn(len(tr.hosts) - 1)
		if c >= a {
			c++
		}
		out[i] = [2]string{tr.hosts[a], tr.hosts[c]}
	}
	return out
}

// replica performs a daemon's job in-process, through the same exported
// calls in internal/mapd/server.go's order, with a span around each. It
// runs beside the real child in traced runs: the child gives the
// end-to-end time, the replica says which layer it went to, and what the
// replica cannot reach from outside (WAL append and fsync, snapshot
// publish, process start, the socket) is reported as the gap between the
// two, by name, instead of being guessed.
type replica struct {
	*truth
	b     *bench
	t     *track
	depth int
	store *mapd.Store
	sess  *mapper.Session
	// What the daemon would be serving: the latest epoch's network, parsed
	// back from its text, and the route table computed on it. Node ids are
	// the map's, not the true fabric's; host names are shared.
	served *topology.Network
	table  *routes.Table

	ckptBytes   []float64 // every Session.Checkpoint image, in bytes
	epochBytes  []float64
	remapProbes []float64
}

// timed runs f inside a root span and returns how much of its duration the
// layer spans under it covered, in milliseconds at reference speed.
func (r *replica) timed(name string, req int64, f func() error) (attributed float64, err error) {
	start := time.Now()
	r.t.begin(name, req)
	err = f()
	r.t.end()
	total := sinceMs(start)
	// The root's self time is harness glue between layer calls.
	selfs := r.t.r.selfMs()[name]
	return r.b.ref(total - selfs[len(selfs)-1])[0], err
}

// coldStart is New + Run up to the first served snapshot on an empty dir.
func (b *bench) replicaColdStart(gen, dir string, t *track, req int64) (*replica, float64, error) {
	r := &replica{b: b, t: t}
	attributed, err := r.timed("replay.cold_start", req, func() error {
		if err := r.open(b, gen, dir); err != nil {
			return err
		}
		var err error
		if r.sess, err = mapper.NewSession(r.sn.Endpoint(r.h0), r.sessionOpts()...); err != nil {
			return err
		}
		base := r.sn.Stats().TotalProbes()
		res, err := r.job("mapper.map", r.sess.Map)
		if err != nil {
			return err
		}
		return r.commit(res, 0, r.sn.Stats().TotalProbes()-base)
	})
	return r, attributed, err
}

// restart is New + Run on a dir that already holds epochs: no mapping, the
// latest epoch is published as it is recovered.
func (b *bench) replicaRestart(gen, dir string, t *track, req int64) (*replica, float64, error) {
	r := &replica{b: b, t: t}
	attributed, err := r.timed("replay.restart", req, func() error {
		if err := r.open(b, gen, dir); err != nil {
			return err
		}
		latest := r.store.Latest()
		if latest == nil {
			return fmt.Errorf("restart replica: no epoch in %s", dir)
		}
		return r.publish(latest)
	})
	return r, attributed, err
}

// open mirrors mapd.New: the store, then the simulated world.
func (r *replica) open(b *bench, gen, dir string) error {
	var err error
	r.t.begin("mapd.store_open", 0)
	r.store, err = mapd.OpenStore(dir)
	r.t.end()
	if err != nil {
		return err
	}
	if r.truth, err = b.newTruth(gen, r.t); err != nil {
		return err
	}
	r.t.begin("topology.depthbound", 0)
	r.depth = r.net.DepthBound(r.h0) + r.net.NumSwitches()
	r.t.end()
	return nil
}

func (r *replica) sessionOpts() []mapper.Option {
	return []mapper.Option{mapper.WithDepth(r.depth), mapper.WithConfirm(2)}
}

// heal mirrors the inject command: apply the cuts, remap, commit, publish.
func (r *replica) heal(spec string, req int64) (float64, error) {
	return r.timed("replay.heal", req, func() error {
		if err := r.cut(spec, r.t); err != nil {
			return err
		}
		if r.sess == nil { // first heal after a restart
			if err := r.restore(); err != nil {
				return err
			}
		}
		base := r.sn.Stats().TotalProbes()
		res, err := r.job("mapper.remap", r.sess.Remap)
		if err != nil {
			return err
		}
		probes := r.sn.Stats().TotalProbes() - base
		r.remapProbes = append(r.remapProbes, float64(probes))
		return r.commit(res, r.store.Latest().Number, probes)
	})
}

// restore rebuilds the mapper session from the latest epoch's checkpoint,
// which a restarted daemon does lazily before its first heal.
func (r *replica) restore() error {
	var err error
	r.t.begin("mapper.restore", 0)
	r.sess, err = mapper.RestoreSession(r.sn.Endpoint(r.h0), r.store.Latest().Checkpoint, r.sessionOpts()...)
	r.t.end()
	return err
}

// job runs one mapper call with the daemon's step hook: every step boundary
// encodes a full session checkpoint (the daemon then appends it to its WAL,
// which is not reachable from outside).
func (r *replica) job(name string, f func() (*mapper.Result, error)) (*mapper.Result, error) {
	r.sess.OnStep(func(mapper.Step) error {
		_, err := r.checkpoint()
		return err
	})
	r.t.begin(name, 0)
	res, err := f()
	r.t.end()
	r.sess.OnStep(nil)
	return res, err
}

func (r *replica) checkpoint() ([]byte, error) {
	r.t.begin("mapper.checkpoint", 0)
	ckpt, err := r.sess.Checkpoint()
	r.t.end()
	r.ckptBytes = append(r.ckptBytes, float64(len(ckpt)))
	return ckpt, err
}

// commit mirrors world.commit: checkpoint, serialise, store, publish.
func (r *replica) commit(res *mapper.Result, parent uint64, probes int64) error {
	ckpt, err := r.checkpoint()
	if err != nil {
		return err
	}
	var netBuf bytes.Buffer
	r.t.begin("topology.write", 0)
	err = res.Network.Write(&netBuf)
	r.t.end()
	if err != nil {
		return err
	}
	ep := &mapd.Epoch{
		EpochMeta: mapd.EpochMeta{
			Number: parent + 1, Parent: parent, Job: r.store.NextJobID(),
			VClock: r.sn.Clock(), Probes: probes,
			Confidence: res.Confidence, Partial: res.Partial,
			Suspects: res.Suspect, SuspectIDs: res.SuspectIDs,
		},
		NetText:    netBuf.Bytes(),
		Checkpoint: ckpt,
	}
	r.t.begin("mapd.store_commit", 0)
	err = r.store.Commit(ep)
	r.t.end()
	if err != nil {
		return err
	}
	if fi, err := os.Stat(filepath.Join(r.store.Dir(), fmt.Sprintf("epoch-%06d.san", ep.Number))); err == nil {
		r.epochBytes = append(r.epochBytes, float64(fi.Size()))
	}
	return r.publish(ep)
}

// publish mirrors buildSnapshot: parse the epoch's network, compute its
// route table.
func (r *replica) publish(ep *mapd.Epoch) error {
	var err error
	r.t.begin("topology.read", 0)
	r.served, err = topology.ReadFrom(bytes.NewReader(ep.NetText))
	r.t.end()
	if err != nil {
		return err
	}
	r.t.begin("routes.compute", 0)
	r.table, err = routes.Compute(r.served, routes.DefaultConfig())
	r.t.end()
	return err
}

// verifyRoutes times the route table's own invariant checks (untimed in
// the daemon, which never runs them): UP*/DOWN* legality, deadlock freedom
// and delivery.
func (r *replica) verifyRoutes() error {
	r.t.begin("routes.verify", 0)
	defer r.t.end()
	if err := r.table.VerifyUpDown(); err != nil {
		return err
	}
	return r.table.VerifyDeadlockFree()
}
