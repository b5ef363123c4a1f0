package mapd

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sanmap/internal/faults"
	"sanmap/internal/genspec"
	"sanmap/internal/mapper"
	"sanmap/internal/obs"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// Config parameterizes a Server. Zero values get defaults from New.
type Config struct {
	Gen   string // genspec topology spec
	Seed  int64  // topology build seed
	Chaos string // fault profile (faults.ParseProfile grammar), "" for none
	Depth int    // base probe depth; 0 derives DepthBound(h0)
	// Mapper overrides the mapping host by name ("" picks the utility
	// host, then the first attached host).
	Mapper string

	StateDir string // epoch store + job file directory (required)
	Listen   string // "unix:PATH", a path, or "host:port"; "" disables the front-end
	Once     bool   // exit after initial convergence instead of serving

	// CrashAfter kills the process (exit code 7) after the n-th durable
	// write — a job step or an epoch commit — the daemon's own
	// crash-injection hook, driven by the kill/restart harness. 0 disables.
	CrashAfter int

	// Interrupt, when non-nil, makes Run return cleanly on a received
	// signal (cmd/sanmapd wires SIGINT/SIGTERM here).
	Interrupt <-chan os.Signal

	Tracer  *obs.Tracer
	Metrics *obs.Registry
	Out     io.Writer // status lines; nil discards

	// exit overrides the crash hook's os.Exit for in-process tests.
	exit func()
}

// Server owns the live map: a single world-loop goroutine runs every
// mapping job and fault injection, while any number of connection
// goroutines answer queries from an atomically swapped Snapshot. The two
// sides share nothing else.
type Server struct {
	cfg   Config
	store *Store
	w     *world

	snap atomic.Pointer[Snapshot]
	cmds chan command
	stop chan struct{}
	once sync.Once

	ln net.Listener
	wg sync.WaitGroup

	queries     atomic.Int64
	refused     atomic.Int64
	failedReads atomic.Int64

	mu     sync.Mutex // guards conns and closed
	conns  map[net.Conn]struct{}
	closed bool
}

// command is a state-changing request handed from a connection goroutine
// to the world loop. reply is buffered so the world never blocks sending.
type command struct {
	op    string // "inject" or "remap"
	spec  string
	reply chan cmdReply
}

type cmdReply struct {
	msg   string
	epoch uint64
	err   error
}

// New builds a server, opens its store, constructs the simulated world
// and, when cfg.Listen is set, starts listening (but not accepting —
// Run does that). The listening address is printed to cfg.Out so
// harnesses using port 0 can find it.
func New(cfg Config) (*Server, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("mapd: StateDir is required")
	}
	if err := checkDepth(cfg.Depth); err != nil {
		return nil, fmt.Errorf("mapd: %w", err)
	}
	if cfg.Gen == "" {
		cfg.Gen = "now-c"
	}
	if cfg.Out == nil {
		cfg.Out = io.Discard
	}
	if cfg.exit == nil {
		cfg.exit = func() { os.Exit(crashExitCode) }
	}
	store, err := OpenStore(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	store.crash = &crashHook{after: cfg.CrashAfter, exit: cfg.exit}
	s := &Server{
		cfg:   cfg,
		store: store,
		cmds:  make(chan command),
		stop:  make(chan struct{}),
		conns: make(map[net.Conn]struct{}),
	}
	if s.w, err = s.buildWorld(); err != nil {
		return nil, err
	}
	if store.Corrupt() > 0 {
		fmt.Fprintf(cfg.Out, "sanmapd: skipped %d corrupt epoch file(s)\n", store.Corrupt())
	}
	if cfg.Listen != "" {
		nw, addr := splitListen(cfg.Listen)
		ln, err := net.Listen(nw, addr)
		if err != nil {
			return nil, fmt.Errorf("mapd: listen: %w", err)
		}
		s.ln = ln
		fmt.Fprintf(cfg.Out, "sanmapd: listening on %v\n", ln.Addr())
	}
	return s, nil
}

// checkDepth refuses a negative -depth: 0 derives Q+D, and a mapper needs
// at least 1.
func checkDepth(depth int) error {
	if depth < 0 {
		return fmt.Errorf("-depth must be 0 (derive Q+D) or positive, got %d", depth)
	}
	return nil
}

// Addr returns the front-end listener address (nil without Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Store exposes the epoch store (read-only use by harnesses).
func (s *Server) Store() *Store { return s.store }

// Snapshot returns the currently served snapshot, nil before the first
// epoch is available.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Close asks Run to return. Safe from any goroutine, idempotent.
func (s *Server) Close() { s.once.Do(func() { close(s.stop) }) }

// Run recovers to a converged epoch and then serves. The calling
// goroutine becomes the world loop: it owns the simulated network, the
// injector and the mapper session; nothing else touches them.
//
// Recovery publishes the store's latest epoch before the first connection
// is accepted, so a restarted daemon never answers "no epoch committed
// yet" (clients that dialled earlier wait in the listen backlog). A cold
// start has nothing to publish and accepts at once.
func (s *Server) Run() error {
	defer s.shutdown()
	resume := s.w.recoverEpoch()
	if s.ln != nil {
		s.wg.Add(1)
		go s.acceptLoop()
	}
	if err := s.w.converge(resume); err != nil {
		return err
	}
	if s.cfg.Once {
		fmt.Fprintf(s.cfg.Out, "sanmapd: converged at epoch %d; exiting\n", s.store.Latest().Number)
		return nil
	}
	for {
		select {
		case c := <-s.cmds:
			s.w.handleCmd(c)
		case <-s.stop:
			fmt.Fprintf(s.cfg.Out, "sanmapd: stop requested; shutting down\n")
			return nil
		case sig := <-s.cfg.Interrupt:
			fmt.Fprintf(s.cfg.Out, "sanmapd: %v; shutting down\n", sig)
			return nil
		}
	}
}

// shutdown unblocks every helper goroutine and joins them.
func (s *Server) shutdown() {
	s.Close() // release conn goroutines waiting on the world loop
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// track registers a connection for shutdown teardown; false means the
// server is already closing and the caller must drop the conn.
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	c.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
}

// splitListen resolves the -listen spec: "unix:PATH" or anything with a
// path separator is a unix socket, the rest is a TCP host:port.
func splitListen(s string) (network, addr string) {
	if a, ok := strings.CutPrefix(s, "unix:"); ok {
		return "unix", a
	}
	if strings.Contains(s, "/") {
		return "unix", s
	}
	return "tcp", s
}

// world is the single-goroutine side of the server: the simulated
// network, its fault injector and the long-lived mapper session. Only
// the goroutine that called Run touches it.
type world struct {
	s      *Server
	topo   *topology.Network
	sn     *simnet.Net
	ep     *simnet.Endpoint
	inj    *faults.Injector
	h0     topology.NodeID
	h0Name string
	depth  int

	// sched is the -chaos schedule. Its structural events are withheld
	// during the initial map (only per-probe rates run) and force-applied
	// after epoch 1 commits, so a crash-restarted map replays against the
	// same pristine network and recovery is deterministic.
	sched        faults.Schedule
	chaosApplied bool

	// suspicion counts injector fault records (minus no-ops); handled is
	// the watermark of the last completed heal. suspicion > handled
	// schedules a heal.
	suspicion int
	handled   int

	session *mapper.Session
	m       worldMetrics

	// build turns an epoch's metadata and network text into its serving
	// snapshot: buildSnapshot, which tests wrap to watch the helper
	// goroutine commit runs it on.
	build func(EpochMeta, []byte) (*Snapshot, error)
}

type worldMetrics struct {
	commits      *obs.Counter
	walAppends   *obs.Counter
	resumed      *obs.Counter
	fenced       *obs.Counter
	healAttempts *obs.Counter
	latest       *obs.Gauge
	level        *obs.Gauge
	suspicion    *obs.Gauge
}

func (s *Server) buildWorld() (*world, error) {
	rng := rand.New(faults.NewSource(uint64(s.cfg.Seed)))
	res, err := genspec.Build(s.cfg.Gen, rng)
	if err != nil {
		return nil, err
	}
	topo := res.Net
	h0, err := topo.MappingHost(res.Utility, s.cfg.Mapper)
	if err != nil {
		return nil, fmt.Errorf("mapd: %s: %w", s.cfg.Gen, err)
	}
	depth := s.cfg.Depth
	if depth == 0 {
		depth = topo.DepthBound(h0)
	}
	// Healing routes can need more depth than the clean bound once cuts
	// lengthen the surviving paths; the margin must be identical across
	// restarts (it is part of the checkpoint's config echo).
	depth += topo.NumSwitches()

	reg := s.cfg.Metrics
	w := &world{
		s: s, topo: topo, h0: h0, h0Name: topo.NameOf(h0), depth: depth,
		sn:    simnet.NewDefault(topo),
		build: buildSnapshot,
		m: worldMetrics{
			commits:      reg.Counter("mapd.epoch.commits"),
			walAppends:   reg.Counter("mapd.wal.appends"),
			resumed:      reg.Counter("mapd.job.resumed"),
			fenced:       reg.Counter("mapd.job.fenced"),
			healAttempts: reg.Counter("mapd.heal.attempts"),
			latest:       reg.Gauge("mapd.epoch.latest"),
			level:        reg.Gauge("mapd.serve.level"),
			suspicion:    reg.Gauge("mapd.suspicion"),
		},
	}
	w.ep = w.sn.Endpoint(h0)
	if s.cfg.Chaos != "" {
		p, seed, err := faults.ParseProfile(s.cfg.Chaos)
		if err != nil {
			return nil, err
		}
		p.Protect = h0
		w.sched = faults.Generate(topo, seed, p)
		if s.cfg.CrashAfter > 0 && !p.Structural() {
			fmt.Fprintf(s.cfg.Out, "sanmapd: warning: -crash-after with stochastic fault rates is not replay-deterministic (probe sequence restarts with the process)\n")
		}
		// Per-probe rates afflict the initial map too; events wait for
		// applyChaos.
		rates := w.sched
		rates.Events = nil
		w.attachInjector(rates)
	}
	return w, nil
}

func (w *world) out() io.Writer { return w.s.cfg.Out }

func (w *world) attachInjector(sched faults.Schedule) {
	w.inj = faults.Attach(w.sn, sched).Instrument(w.s.cfg.Tracer, w.s.cfg.Metrics)
	w.inj.SetOnRecord(w.onRecord)
}

// onRecord is the suspicion signal: every effective fault record bumps
// the counter the continuous remap loop keys on. Runs on the world
// goroutine (records fire inside probe evaluation or ApplyAll).
func (w *world) onRecord(rec faults.Record) {
	if strings.HasSuffix(rec.What, "-noop") {
		return
	}
	w.suspicion++
	w.m.suspicion.Set(int64(w.suspicion))
}

// applyChaos force-applies the withheld structural fault events. Called
// once epoch 1 exists — freshly committed or recovered from disk — so
// every process observes the same damaged network.
func (w *world) applyChaos() {
	if w.chaosApplied || w.s.cfg.Chaos == "" {
		return
	}
	w.attachInjector(w.sched)
	w.inj.ApplyAll()
	w.sn.Reconfigure()
	w.chaosApplied = true
	fmt.Fprintf(w.out(), "sanmapd: applied %d scheduled fault events\n", len(w.sched.Events))
}

// recoverEpoch is crash recovery: pick the job file worth resuming (nil
// when none), sweep the others and any unrenamed temp file, and publish
// the latest committed epoch, if there is one, as the serving snapshot.
func (w *world) recoverEpoch() *Epoch {
	st := w.s.store
	resume := st.newestJob()
	latest := st.Latest()
	var latestN uint64
	if latest != nil {
		latestN = latest.Number
	}
	if resume != nil && resume.Parent != latestN {
		// The job heals from an epoch that is no longer the tip. Either it
		// committed the tip itself and died before removing its file, or
		// job-ID fencing applies: its work is superseded. Discard.
		if latest == nil || latest.Job != resume.Job {
			fmt.Fprintf(w.out(), "sanmapd: discarding fenced job %d (parent %d, latest %d)\n",
				resume.Job, resume.Parent, latestN)
			w.m.fenced.Inc()
		}
		resume = nil
	}
	var keep uint64
	if resume != nil {
		keep = resume.Job
	}
	st.sweep(keep)
	if latest != nil {
		fmt.Fprintf(w.out(), "sanmapd: recovered %d epoch(s), latest %d\n", len(st.Epochs()), latestN)
		w.publish(latest)
	}
	return resume
}

// converge is initial convergence after recoverEpoch: make sure an
// initial-map epoch exists (resuming an interrupted map job from its job
// file), then, under -chaos, apply the faults and heal to the repaired
// epoch (resuming an interrupted remap job likewise). Publishes a serving
// snapshot at each committed epoch.
func (w *world) converge(resume *Epoch) error {
	if w.s.store.Latest() == nil {
		if _, err := w.job(resume); err != nil {
			return err
		}
		resume = nil
	}
	if w.s.cfg.Chaos != "" {
		w.applyChaos()
		if w.s.store.Latest().Number < 2 {
			return w.heal(resume)
		}
	}
	return nil
}

// The heal loop's tuning: remap attempts per suspicion burst, and the capped
// exponential backoff between attempts. The backoff is charged to the
// simulation's virtual clock, never the wall clock, so healing is
// deterministic and tests are fast.
const (
	healAttempts   = 3
	healBackoff    = 2 * time.Millisecond
	healBackoffMax = 50 * time.Millisecond
)

// heal is the continuous remap loop's active phase: remap until the
// result is clean (not partial, no suspects, no new suspicion raised
// mid-remap) or attempts run out, with capped exponential backoff —
// charged to virtual time — between attempts. The first attempt may
// resume an interrupted remap job from its job file.
func (w *world) heal(resume *Epoch) error {
	backoff := healBackoff
	for attempt := 1; ; attempt++ {
		w.m.healAttempts.Inc()
		before := w.suspicion
		res, err := w.job(resume)
		resume = nil
		if err != nil {
			return err
		}
		clean := !res.Partial && len(res.Suspect) == 0 && w.suspicion == before
		if clean || attempt >= healAttempts {
			w.handled = w.suspicion
			if !clean {
				fmt.Fprintf(w.out(), "sanmapd: heal attempts exhausted (%d); serving degraded\n", attempt)
			}
			return nil
		}
		fmt.Fprintf(w.out(), "sanmapd: heal attempt %d still suspicious; backing off %v\n", attempt, backoff)
		w.sn.AdvanceClock(backoff)
		if backoff *= 2; backoff > healBackoffMax {
			backoff = healBackoffMax
		}
	}
}

// job runs one mapper job — the initial map while no epoch exists, else a
// remap of the latest — and commits its result as the next epoch. resume,
// when non-nil, is this job's file, left by a crash: the session and the
// virtual clock continue from its newest step. Every step boundary
// durably rewrites the job file (giving the crash hook its window) before
// the job proceeds.
func (w *world) job(resume *Epoch) (*mapper.Result, error) {
	st := w.s.store
	var parent uint64
	if latest := st.Latest(); latest != nil {
		parent = latest.Number
	}
	id := st.NextJobID()
	if resume != nil {
		sess, err := mapper.RestoreSession(w.ep, resume.Checkpoint, w.sessionOpts()...)
		if err != nil {
			return nil, fmt.Errorf("mapd: restore job %d: %w", resume.Job, err)
		}
		w.session, id = sess, resume.Job
		w.alignClock(resume.VClock)
		w.m.resumed.Inc()
		kind := "remap"
		if parent == 0 {
			kind = "map"
		}
		fmt.Fprintf(w.out(), "sanmapd: resuming %s job %d\n", kind, id)
	} else if err := w.ensureSession(); err != nil {
		return nil, err
	}
	base := w.sn.Stats().TotalProbes()
	w.session.OnStep(func(mapper.Step) error {
		ckpt, err := w.session.Checkpoint()
		if err != nil {
			return err
		}
		w.m.walAppends.Inc()
		return st.writeJob(&Epoch{
			EpochMeta:  EpochMeta{Number: parent + 1, Parent: parent, Job: id, VClock: w.sn.Clock()},
			Checkpoint: ckpt,
		})
	})
	var res *mapper.Result
	var err error
	if parent == 0 {
		res, err = w.session.Map()
	} else {
		res, err = w.session.Remap()
	}
	w.session.OnStep(nil)
	if err == nil {
		err = w.commit(id, parent, resume != nil, w.sn.Stats().TotalProbes()-base, res)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// alignClock fast-forwards the virtual clock to a persisted timeline
// position: a job file's newest step, or the epoch a session is restored
// from. A restarted process's clock begins at zero; without this the
// resumed segment would log virtual timestamps shifted by everything the
// dead processes already spent, and the committed checkpoint's
// observation log would differ from an uninterrupted run's byte-for-byte.
func (w *world) alignClock(target time.Duration) {
	if d := target - w.sn.Clock(); d > 0 {
		w.sn.AdvanceClock(d)
	}
}

// ensureSession makes sure a mapper session exists: a fresh one before
// the initial map, else one restored from the latest epoch's embedded
// checkpoint — the boot path when no job file survived — whose clock
// continues from that epoch's.
func (w *world) ensureSession() error {
	if w.session != nil {
		return nil
	}
	latest := w.s.store.Latest()
	if latest == nil {
		sess, err := mapper.NewSession(w.ep, w.sessionOpts()...)
		w.session = sess
		return err
	}
	sess, err := mapper.RestoreSession(w.ep, latest.Checkpoint, w.sessionOpts()...)
	if err != nil {
		return fmt.Errorf("mapd: restore session from epoch %d: %w", latest.Number, err)
	}
	w.session = sess
	w.alignClock(latest.VClock)
	fmt.Fprintf(w.out(), "sanmapd: session restored from epoch %d checkpoint\n", latest.Number)
	return nil
}

func (w *world) sessionOpts() []mapper.Option {
	return []mapper.Option{
		mapper.WithDepth(w.depth),
		mapper.WithConfirm(2),
		mapper.WithTracer(w.s.cfg.Tracer),
		mapper.WithMetrics(w.s.cfg.Metrics),
	}
}

// commit writes the next epoch (fenced against concurrent committers),
// discharges the job file and publishes the serving snapshot. The snapshot
// is built from the rendered network text on one helper goroutine while
// this one encodes the checkpoint and makes the epoch durable; the helper
// reads nothing but that text and the epoch's metadata. It is joined on
// every path, and its snapshot is published only once Store.Commit has
// succeeded, so no query sees an epoch that is not on disk.
func (w *world) commit(id, parent uint64, resumed bool, probes int64, res *mapper.Result) error {
	var netBuf bytes.Buffer
	if err := res.Network.Write(&netBuf); err != nil {
		return err
	}
	ep := &Epoch{
		EpochMeta: EpochMeta{
			Number: parent + 1, Parent: parent, Job: id, Resumed: resumed,
			VClock: w.sn.Clock(), Probes: probes,
			Confidence: res.Confidence, Partial: res.Partial,
			Suspects: res.Suspect, SuspectIDs: res.SuspectIDs,
		},
		NetText: netBuf.Bytes(),
	}
	var snap *Snapshot
	var buildErr error
	meta, text := ep.EpochMeta, ep.NetText
	build, built := w.build, make(chan struct{})
	go func() {
		defer close(built)
		snap, buildErr = build(meta, text)
	}()

	ckpt, err := w.session.Checkpoint()
	if err == nil {
		ep.Checkpoint = ckpt
		err = w.s.store.Commit(ep)
		w.s.store.removeJob(id) // committed, or fenced: this job is done either way
	}
	<-built
	if err != nil {
		return err
	}
	w.m.commits.Inc()
	w.m.latest.Set(int64(ep.Number))
	if w.s.cfg.Tracer != nil {
		w.s.cfg.Tracer.Instant("mapd", "commit", w.sn.Clock(),
			obs.Int("epoch", int(ep.Number)), obs.Int("probes", int(probes)))
	}
	w.serve(ep, snap, buildErr)
	return nil
}

// publish serves a recovered epoch, building its snapshot with the builder
// commit uses, on the world loop: a restart has no durable write for the
// build to overlap.
func (w *world) publish(ep *Epoch) {
	snap, err := w.build(ep.EpochMeta, ep.NetText)
	w.serve(ep, snap, err)
}

// serve swaps in ep's immutable serving snapshot. On a snapshot build
// failure the previous snapshot keeps serving (degradation ladder rung 0:
// serve what we have).
func (w *world) serve(ep *Epoch, snap *Snapshot, err error) {
	if err != nil {
		fmt.Fprintf(w.out(), "sanmapd: epoch %d unservable: %v\n", ep.Number, err)
		return
	}
	snap.Metrics = w.metricsSnapshot()
	w.m.level.Set(int64(snap.Level))
	w.s.snap.Store(snap)
	fmt.Fprintf(w.out(), "sanmapd: serving epoch %d (%s, confidence %.3f, %v)\n",
		ep.Number, levelName(snap.Level), ep.Confidence, snap.Net)
}

// metricsSnapshot freezes the registry into a plain map so connection
// goroutines can serve metrics without touching the live registry.
func (w *world) metricsSnapshot() map[string]int64 {
	out := make(map[string]int64)
	w.s.cfg.Metrics.EachCounter(func(n string, v int64) { out[n] = v })
	w.s.cfg.Metrics.EachGauge(func(n string, v int64) { out[n] = v })
	return out
}

// handleCmd executes one state-changing client command on the world loop.
func (w *world) handleCmd(c command) {
	var rep cmdReply
	switch c.op {
	case "inject":
		n, err := w.inject(c.spec)
		if err != nil {
			rep.err = err
			break
		}
		if w.suspicion > w.handled {
			if err := w.heal(nil); err != nil {
				rep.err = err
				break
			}
		}
		rep.msg = fmt.Sprintf("%d fault event(s) applied", n)
	case "remap":
		rep.err = w.heal(nil)
		if rep.err == nil {
			rep.msg = "remapped"
		}
	default:
		rep.err = fmt.Errorf("mapd: unknown command %q", c.op)
	}
	if latest := w.s.store.Latest(); latest != nil {
		rep.epoch = latest.Number
	}
	c.reply <- rep
}

// inject generates and force-applies a fault schedule against the
// current (possibly already damaged) topology. Flap pairs cancel out
// under ApplyAll; this is the structural-faults entry point.
func (w *world) inject(spec string) (int, error) {
	p, seed, err := faults.ParseProfile(spec)
	if err != nil {
		return 0, err
	}
	p.Protect = w.h0
	sched := faults.Generate(w.sn.Topology(), seed, p)
	w.attachInjector(sched)
	w.inj.ApplyAll()
	w.sn.Reconfigure()
	w.chaosApplied = true
	return len(sched.Events), nil
}
