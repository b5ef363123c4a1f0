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

	StateDir string // epoch store + WAL directory (required)
	Listen   string // "unix:PATH", a path, or "host:port"; "" disables the front-end
	Once     bool   // exit after initial convergence instead of serving

	// CrashAfter kills the process (exit code 7) at the n-th WAL append
	// — the daemon's own crash-injection hook, driven by the kill/restart
	// harness. 0 disables.
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
	crash *crashHook
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
	s := &Server{
		cfg:   cfg,
		store: store,
		crash: &crashHook{after: cfg.CrashAfter, exit: cfg.exit},
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
	walSt, err := s.w.recoverEpoch()
	if err != nil {
		return err
	}
	if s.ln != nil {
		s.wg.Add(1)
		go s.acceptLoop()
	}
	if err := s.w.converge(walSt); err != nil {
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
		sn: simnet.NewDefault(topo),
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

// recoverEpoch is crash recovery: pick the WAL job worth resuming (nil when
// none), discard fenced and stale ones, and publish the latest committed
// epoch, if there is one, as the serving snapshot.
func (w *world) recoverEpoch() (*walState, error) {
	st := w.s.store
	walSt, err := loadWAL(st.Dir())
	if err != nil {
		return nil, err
	}
	latest := st.Latest()
	var latestN uint64
	if latest != nil {
		latestN = latest.Number
	}
	if walSt != nil && walSt.Parent != latestN {
		// Job-ID fencing: this WAL's job heals from an epoch that is no
		// longer the tip, so its work is superseded. Discard.
		fmt.Fprintf(w.out(), "sanmapd: discarding fenced wal job %d (parent %d, latest %d)\n",
			walSt.Job, walSt.Parent, latestN)
		w.m.fenced.Inc()
		walSt = nil
	}
	var keep uint64
	if walSt != nil {
		keep = walSt.Job
	}
	for _, p := range staleWALs(st.Dir(), keep) {
		os.Remove(p)
	}
	if latest != nil {
		fmt.Fprintf(w.out(), "sanmapd: recovered %d epoch(s), latest %d\n", len(st.Epochs()), latestN)
		w.publish(latest)
	}
	return walSt, nil
}

// converge is initial convergence after recoverEpoch: make sure an initial-map
// epoch exists (resuming an interrupted map job from its WAL), then,
// under -chaos, apply the faults and heal to the repaired epoch (resuming
// an interrupted remap job likewise). Publishes a serving snapshot at
// each committed epoch.
func (w *world) converge(walSt *walState) error {
	latest := w.s.store.Latest()
	if latest == nil {
		if err := w.mapJob(walSt); err != nil {
			return err
		}
		walSt = nil
		latest = w.s.store.Latest()
	}
	if w.s.cfg.Chaos != "" {
		w.applyChaos()
		if latest.Number < 2 {
			return w.heal("chaos", walSt)
		}
	}
	return nil
}

// mapJob runs (or resumes) the initial-map job and commits epoch 1.
func (w *world) mapJob(resume *walState) error {
	st := w.s.store
	var wal *WAL
	var err error
	resumed := false
	if resume != nil {
		target := resume.VClock
		if resume.Last != nil {
			sess, rerr := mapper.RestoreSession(w.ep, resume.Last.Checkpoint, w.sessionOpts()...)
			if rerr != nil {
				return fmt.Errorf("mapd: restore map job %d: %w", resume.Job, rerr)
			}
			w.session = sess
			target = resume.Last.VClock
		}
		w.alignClock(target)
		if wal, err = resumeWAL(resume, w.s.crash, w.m.walAppends); err != nil {
			return err
		}
		resumed = true
		w.m.resumed.Inc()
		fmt.Fprintf(w.out(), "sanmapd: resuming map job %d (%d wal step(s))\n", resume.Job, resume.Steps)
	} else {
		if wal, err = createWAL(st.Dir(), st.NextJobID(), w.s.crash, w.m.walAppends); err != nil {
			return err
		}
		if err = wal.Begin(0, int64(w.sn.Clock()), "initial-map"); err != nil {
			return err
		}
	}
	if w.session == nil {
		if w.session, err = mapper.NewSession(w.ep, w.sessionOpts()...); err != nil {
			return err
		}
	}
	res, probes, err := w.runJob(wal, func() (*mapper.Result, error) { return w.session.Map() })
	if err != nil {
		return err
	}
	return w.commit(wal, 0, resumed, probes, res)
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
// resume an interrupted remap job from its WAL.
func (w *world) heal(reason string, resume *walState) error {
	backoff := healBackoff
	for attempt := 1; ; attempt++ {
		w.m.healAttempts.Inc()
		before := w.suspicion
		res, err := w.remapJob(reason, resume)
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

// remapJob runs (or resumes) one remap job and commits the next epoch.
func (w *world) remapJob(reason string, resume *walState) (*mapper.Result, error) {
	st := w.s.store
	latest := st.Latest()
	var wal *WAL
	var err error
	resumed := false
	if resume != nil {
		ckpt, src, target := latest.Checkpoint, fmt.Sprintf("epoch %d", latest.Number), resume.VClock
		if resume.Last != nil {
			ckpt, src, target = resume.Last.Checkpoint, fmt.Sprintf("wal step %d", resume.Steps), resume.Last.VClock
		}
		sess, rerr := mapper.RestoreSession(w.ep, ckpt, w.sessionOpts()...)
		if rerr != nil {
			return nil, fmt.Errorf("mapd: restore remap job %d: %w", resume.Job, rerr)
		}
		w.session = sess
		w.alignClock(target)
		if wal, err = resumeWAL(resume, w.s.crash, w.m.walAppends); err != nil {
			return nil, err
		}
		resumed = true
		w.m.resumed.Inc()
		fmt.Fprintf(w.out(), "sanmapd: resuming remap job %d from %s\n", resume.Job, src)
	} else {
		if err = w.ensureSession(); err != nil {
			return nil, err
		}
		if wal, err = createWAL(st.Dir(), st.NextJobID(), w.s.crash, w.m.walAppends); err != nil {
			return nil, err
		}
		if err = wal.Begin(latest.Number, int64(w.sn.Clock()), reason); err != nil {
			return nil, err
		}
	}
	res, probes, err := w.runJob(wal, func() (*mapper.Result, error) { return w.session.Remap() })
	if err != nil {
		return nil, err
	}
	if err := w.commit(wal, latest.Number, resumed, probes, res); err != nil {
		return nil, err
	}
	return res, nil
}

// alignClock fast-forwards the virtual clock to the persisted timeline
// position of the record a resumed job continues from. A restarted
// process's clock begins at zero; without this the resumed segment would
// log virtual timestamps shifted by everything the dead processes already
// spent, and the committed checkpoint's observation log would differ from
// an uninterrupted run's byte-for-byte.
func (w *world) alignClock(target int64) {
	if d := time.Duration(target) - w.sn.Clock(); d > 0 {
		w.sn.AdvanceClock(d)
	}
}

// ensureSession lazily restores the mapper session from the latest
// epoch's embedded checkpoint — the boot path when no WAL survived.
func (w *world) ensureSession() error {
	if w.session != nil {
		return nil
	}
	latest := w.s.store.Latest()
	sess, err := mapper.RestoreSession(w.ep, latest.Checkpoint, w.sessionOpts()...)
	if err != nil {
		return fmt.Errorf("mapd: restore session from epoch %d: %w", latest.Number, err)
	}
	w.session = sess
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

// runJob drives one mapper call with the WAL step hook installed: every
// step boundary durably logs a full session checkpoint (and gives the
// crash hook its window) before the job proceeds.
func (w *world) runJob(wal *WAL, f func() (*mapper.Result, error)) (*mapper.Result, int64, error) {
	base := w.sn.Stats().TotalProbes()
	w.session.OnStep(func(stp mapper.Step) error {
		ckpt, err := w.session.Checkpoint()
		if err != nil {
			return err
		}
		return wal.Step(stepRecord{
			Kind: stp.Kind, Round: stp.Round, Dropped: stp.Dropped,
			Probes:     w.sn.Stats().TotalProbes() - base,
			VClock:     int64(w.sn.Clock()),
			Checkpoint: ckpt,
		})
	})
	res, err := f()
	w.session.OnStep(nil)
	if err != nil {
		wal.Close()
		return nil, 0, err
	}
	return res, w.sn.Stats().TotalProbes() - base, nil
}

// commit writes the next epoch (fenced against concurrent committers),
// discharges the WAL and publishes the serving snapshot.
func (w *world) commit(wal *WAL, parent uint64, resumed bool, probes int64, res *mapper.Result) error {
	ckpt, err := w.session.Checkpoint()
	if err != nil {
		wal.Close()
		return err
	}
	var netBuf bytes.Buffer
	if err := res.Network.Write(&netBuf); err != nil {
		wal.Close()
		return err
	}
	ep := &Epoch{
		EpochMeta: EpochMeta{
			Number: parent + 1, Parent: parent, Job: wal.job, Resumed: resumed,
			VClock: w.sn.Clock(), Probes: probes,
			Confidence: res.Confidence, Partial: res.Partial,
			Suspects: res.Suspect, SuspectIDs: res.SuspectIDs,
		},
		NetText:    netBuf.Bytes(),
		Checkpoint: ckpt,
	}
	if err := w.s.store.Commit(ep); err != nil {
		wal.Remove() // fenced or invalid — this job is dead either way
		return err
	}
	wal.Remove()
	w.m.commits.Inc()
	w.m.latest.Set(int64(ep.Number))
	if w.s.cfg.Tracer != nil {
		w.s.cfg.Tracer.Instant("mapd", "commit", w.sn.Clock(),
			obs.Int("epoch", int(ep.Number)), obs.Int("probes", int(probes)))
	}
	w.publish(ep)
	return nil
}

// publish swaps in the immutable serving snapshot for ep. On a snapshot
// build failure the previous snapshot keeps serving (degradation ladder
// rung 0: serve what we have).
func (w *world) publish(ep *Epoch) {
	snap, err := buildSnapshot(ep)
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
			if err := w.heal("inject", nil); err != nil {
				rep.err = err
				break
			}
		}
		rep.msg = fmt.Sprintf("%d fault event(s) applied", n)
	case "remap":
		rep.err = w.heal("manual", nil)
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
