package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sanmap/internal/faults"
	"sanmap/internal/topology"
)

// sizes are the input dimensions of one -scale.
type sizes struct {
	steadyGen  string
	segBatches int // pipelined batches of route queries per serve-steady segment

	churnGen string
	injects  int // link cuts per daemon life; must stay within the fabric's non-bridge budget
	think    time.Duration

	largeGen  string
	largeCuts int

	kernel kernelSizes

	loadGen      string
	loadDuration string

	// setupReps is how often a run repeats its set-up; setup_s is the
	// median, which keeps a cold first `go build` in a fresh checkout out
	// of the number.
	setupReps int

	rttSamples int // per-op round trips sampled in a traced serve run
	evalRoutes int // Net.Eval calls timed for simnet.eval_ns
}

var scales = map[string]sizes{
	"full": {
		steadyGen: "now-cab", segBatches: 1000,
		churnGen: "fattree2:32x4", injects: 20, think: 100 * time.Millisecond,
		largeGen: "fattree2:128x6", largeCuts: 2,
		kernel:  kernelFull,
		loadGen: "fattree2:32x4", loadDuration: "50ms",
		setupReps: 5, rttSamples: 2000, evalRoutes: 1 << 20,
	},
	"tiny": {
		steadyGen: "now-c", segBatches: 8,
		churnGen: "fattree2:8x2", injects: 3, think: time.Millisecond,
		largeGen: "fattree2:8x2", largeCuts: 1,
		kernel:  kernelTiny,
		loadGen: "fattree2:8x2", loadDuration: "100us",
		setupReps: 1, rttSamples: 50, evalRoutes: 1 << 10,
	},
}

// setup times the workload's set-up: building the two binaries from the
// checkout plus whatever prepare does before the measured window opens.
// prepare runs sizes.setupReps times and must replace what its last call left.
func (b *bench) setup(prepare func() error) error {
	var secs []float64
	for i := 0; i < b.sz.setupReps; i++ {
		var took time.Duration
		speed, err := b.spd.around(func() error {
			start := time.Now()
			if err := b.buildBinaries(); err != nil {
				return err
			}
			err := prepare()
			took = time.Since(start)
			return err
		})
		if err != nil {
			return err
		}
		secs = append(secs, took.Seconds()*speed)
	}
	b.e2e("setup_s", secs...)
	return nil
}

// rng derives an input stream from -seed; salt keeps streams apart.
func (b *bench) rng(salt uint64) *rand.Rand {
	return rand.New(faults.NewSource(uint64(b.opt.seed)*0x9e3779b97f4a7c15 + salt))
}

// served is a daemon brought up to its first answer, with the harness's
// truth about its fabric and the seeded requests to send it.
type served struct {
	d    *daemon
	cl   *client
	tr   *truth
	info startInfo
	reqs []string // pre-encoded route requests between seeded host pairs, a whole number of batches
}

func (s *served) close() {
	if s != nil && s.d != nil {
		s.cl.close()
		s.d.kill()
	}
}

// stop ends the daemon through its stop op and waits for it to exit.
func (s *served) stop() error {
	err := s.d.stop(s.cl)
	s.d = nil
	return err
}

// serve builds the truth, spawns a daemon on a fresh state dir and waits for
// its first answered route query.
func (b *bench) serve(gen string, t *track) (*served, error) {
	tr, err := b.newTruth(gen, nil)
	if err != nil {
		return nil, err
	}
	s := &served{tr: tr}
	for _, p := range tr.pairs(b.rng(1), 4096) {
		s.reqs = append(s.reqs, routeRequest(p[0], p[1]))
	}
	dir, err := b.stateDir()
	if err != nil {
		return nil, err
	}
	if s.d, err = b.spawn(gen, dir); err != nil {
		return nil, err
	}
	if s.cl, s.info, err = b.connect(s.d, s.reqs[0], t); err != nil {
		s.d.kill()
		return nil, err
	}
	return s, nil
}

// verifyRoute checks one sampled route reply against the true fabric.
func (b *bench) verifyRoute(tr *truth, raw string) {
	rep, err := parseReply([]byte(raw))
	if err == nil && !rep.OK {
		err = fmt.Errorf("not ok: %s", raw)
	}
	if err == nil {
		err = tr.checkRoute(rep)
	}
	if err != nil {
		b.fail("route reply: %v", err)
	}
}

// pipeline is how many requests a closed-loop reader keeps in flight: it
// writes that many in one batch, reads every reply, and only then sends the
// next batch. One request at a time would put two process wake-ups on every
// query, three quarters of a round trip, and how long a wake-up takes is the
// sandbox's business and changes from minute to minute; a batch pays the two
// wake-ups once, and the rest of its round trip is the daemon decoding,
// answering and encoding 64 queries. The single-query round trips are per-layer
// metrics (mapd.rtt_*_us).
const pipeline = 64

// segment is one closed-loop burst of batches on one connection. The
// percentiles are of the batches' round trips.
type segment struct {
	p10us, p50us, p99us, qps float64
}

// atSpeed expresses the segment at reference speed (calib.go).
func (s segment) atSpeed(speed float64) segment {
	return segment{p10us: s.p10us * speed, p50us: s.p50us * speed, p99us: s.p99us * speed, qps: s.qps / speed}
}

// querySegment sends n batches back to back, timing each from the previous
// one's last reply (closed loop, one connection), and keeps every
// sampleEvery-th reply for checking after the clock stops. reqs is a whole
// number of batches.
func (b *bench) querySegment(cl *client, reqs []string, next *int, n int, t *track, samples *[]string) (segment, error) {
	const sampleEvery = 1000
	lat := make([]float64, n)
	start := time.Now()
	prev := start
	for i := 0; i < n; i++ {
		k := *next
		*next += pipeline
		t.begin("mapd.rtt_batch", int64(k))
		err := cl.send(reqs[k%len(reqs):][:pipeline]...)
		for j := k; j < k+pipeline && err == nil; j++ {
			var raw []byte
			if raw, err = cl.recv(); err != nil {
				break
			}
			if !bytes.Contains(raw, okTrue) {
				b.fail("query %d: %s", j, firstLine(string(raw)))
			}
			if j%sampleEvery == 0 {
				*samples = append(*samples, string(raw))
			}
		}
		t.end()
		if err != nil {
			return segment{}, fmt.Errorf("batch at query %d: %w", k, err)
		}
		now := time.Now()
		lat[i] = float64(now.Sub(prev)) / float64(time.Microsecond)
		prev = now
	}
	b.attempt(n * pipeline)
	sort.Float64s(lat)
	return segment{
		p10us: percentile(lat, 10), p50us: percentile(lat, 50), p99us: percentile(lat, 99),
		qps: float64(n*pipeline) / prev.Sub(start).Seconds(),
	}, nil
}

// serveSteady is the read path alone.
func (b *bench) serveSteady() error {
	var s *served
	defer func() { s.close() }()
	err := b.setup(func() error {
		s.close()
		return pinned(func() (err error) { // the daemon inherits the CPU (pin.go)
			s, err = b.serve(b.sz.steadyGen, nil)
			return
		})
	})
	if err != nil {
		return err
	}

	tk := b.tr.newTrack()
	var plain, traced []segment
	var samples []string
	err = pinned(func() (err error) { // the client shares the daemon's CPU
		defer batchPolicy()()
		next := 0
		// Half of a traced run goes to the per-op and in-process spans.
		plain, traced, err = repeat(b, tk, 0.5, func(_ int, t *track) (seg segment, err error) {
			speed, err := b.spd.around(func() (err error) {
				seg, err = b.querySegment(s.cl, s.reqs, &next, b.sz.segBatches, t, &samples)
				return
			})
			return seg.atSpeed(speed), err
		})
		return
	})
	if err != nil {
		return err
	}
	for _, raw := range samples {
		b.verifyRoute(s.tr, raw)
	}
	rss := s.d.peakRSSMB()

	col := func(segs []segment, f func(segment) float64) []float64 {
		out := make([]float64, len(segs))
		for i, sg := range segs {
			out[i] = f(sg)
		}
		return out
	}
	p50 := col(plain, func(s segment) float64 { return s.p50us })
	p99 := col(plain, func(s segment) float64 { return s.p99us })
	qps := col(plain, func(s segment) float64 { return s.qps })
	b.named("query_p50_us", p50...)
	b.named("query_p99_us", p99...)
	b.named("query_qps", qps...)
	b.named("daemon_rss_mb", rss)
	// The lower decile, not the median. A batch takes 0.28 ms when the
	// daemon answers it in one go, and two to four times that when the two
	// processes take turns within it (pin.go) or the daemon collects
	// garbage. How many batches that happens to is the scheduler's and the
	// host's doing, between three and six in ten, so the median sits on
	// the knee of the distribution and over eight runs spread by 15 %
	// where the lower decile spread by 4 %. The undisturbed batch is the
	// read path's own cost; the rest shows in throughput and tail_ms, and
	// query_p50_us above stays the median.
	b.e2e("latency_ms", col(plain, func(s segment) float64 { return s.p10us * 1e-3 })...)
	b.e2e("tail_ms", col(plain, func(s segment) float64 { return s.p99us * 1e-3 })...)
	b.e2e("throughput", qps...)

	if b.tr != nil {
		tp50 := col(traced, func(s segment) float64 { return s.p50us })
		b.layer("trace.overhead_pct", 100*(medianOf(tp50)-medianOf(p50))/medianOf(p50))
		b.layer("proc.peak_rss_mb", rss)
		if err := b.serveLayers(s, tk, medianOf(p50)/pipeline); err != nil {
			return err
		}
	}
	return s.stop()
}

// rtt times one round trip of req, in microseconds.
func (b *bench) rtt(cl *client, t *track, span, req string) (float64, error) {
	start := time.Now()
	t.begin(span, 0)
	raw, err := cl.call(req)
	t.end()
	us := float64(time.Since(start)) / float64(time.Microsecond)
	if err != nil {
		return 0, err
	}
	b.attempt(1)
	if !bytes.Contains(raw, okTrue) {
		b.fail("%s: %s", req, firstLine(string(raw)))
	}
	return us, nil
}

// serveLayers is the traced half of serve-steady: what each op costs over
// the socket (ping is the floor; route minus ping is lookup plus encode),
// what the daemon's own counters say, and the start-up job replayed
// in-process for the layers that did the work before the first answer.
// queryUs is one query's share of the median batch round trip.
func (b *bench) serveLayers(s *served, tk *track, queryUs float64) error {
	// The first load query of a snapshot runs the replay; later ones hit
	// the per-snapshot cache.
	cold, err := b.rtt(s.cl, tk, "mapd.rtt_load_cold", `{"op":"load"}`)
	if err != nil {
		return err
	}
	b.layer("mapd.rtt_load_cold_ms", b.ref(cold/1e3)...)
	// The ops are sampled round-robin so that drift in the machine's speed
	// lands on all of them alike.
	ops := []struct{ metric, req string }{
		{"mapd.rtt_ping_us", `{"op":"ping"}`},
		{"mapd.rtt_route_us", s.reqs[1]},
		{"mapd.rtt_epoch_us", `{"op":"epoch"}`},
		{"mapd.rtt_metrics_us", `{"op":"metrics"}`},
		{"mapd.rtt_topo_us", `{"op":"topo"}`},
		{"mapd.rtt_load_warm_us", `{"op":"load"}`},
	}
	us := make([][]float64, len(ops))
	err = pinned(func() error { // on the daemon's CPU, like the measured loop
		defer batchPolicy()()
		for i := 0; i < b.sz.rttSamples; i++ {
			for k, op := range ops {
				v, err := b.rtt(s.cl, tk, op.metric, op.req)
				if err != nil {
					return err
				}
				us[k] = append(us[k], v)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for k, op := range ops {
		b.layer(op.metric, b.ref(us[k]...)...)
	}
	b.layer("mapd.spawn_ms", b.ref(s.info.spawnMs)...)
	b.layer("mapd.start_polls", float64(s.info.polls))
	m, err := daemonMetrics(s.cl)
	if err != nil {
		return err
	}
	b.layer("mapd.refused", float64(m.Refused))
	b.layer("mapd.failed_reads", float64(m.FailedReads))

	// In-process: the table lookup the route op performs, on the harness's
	// own map of the same fabric.
	dir, err := b.stateDir()
	if err != nil {
		return err
	}
	r, attributed, err := b.replicaColdStart(b.sz.steadyGen, dir, tk, 0)
	if err != nil {
		return err
	}
	if err := r.verifyRoutes(); err != nil {
		b.fail("replica route table: %v", err)
	}
	pairs := r.pairs(b.rng(1), 4096)
	ids := make([][2]topology.NodeID, len(pairs))
	for i, p := range pairs {
		ids[i] = [2]topology.NodeID{r.served.Lookup(p[0]), r.served.Lookup(p[1])}
	}
	const lookupRounds = 64
	tk.begin("routes.lookup", 0)
	start := time.Now()
	for round := 0; round < lookupRounds; round++ {
		for _, p := range ids {
			if _, ok := r.table.Route(p[0], p[1]); !ok {
				b.fail("replica table has no route %v", p)
			}
			r.table.WirePath(p[0], p[1])
		}
	}
	lookupNs := b.ref(float64(time.Since(start)) / float64(lookupRounds*len(ids)))[0]
	tk.end()
	b.layer("routes.lookup_ns", lookupNs)
	// From outside, the lookup is the only part of a query the harness
	// can attribute; decode, handle, encode and the socket are the rest.
	b.layer("trace.coverage", lookupNs/1e3/queryUs)
	b.layer("mapd.unattributed_ms.cold_start", b.ref(s.info.readyMs)[0]-attributed)
	b.replicaLayers(r)
	return nil
}

// daemonMetrics reads the daemon's own counters through its metrics op.
func daemonMetrics(cl *client) (metricsReply, error) {
	var m metricsReply
	raw, err := cl.call(`{"op":"metrics"}`)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(raw, &m); err != nil || !m.OK {
		return m, fmt.Errorf("metrics reply: %s", firstLine(string(raw)))
	}
	return m, nil
}

// spanLayers reports the self time of each named span as <span>_ms.
func (b *bench) spanLayers(spans ...string) {
	self := b.selfMs()
	for _, span := range spans {
		b.layer(span+"_ms", self[span]...)
	}
}

// replicaLayers folds the replica's spans and counts into the per-layer
// metrics that do not depend on the workload.
func (b *bench) replicaLayers(r *replica) {
	b.spanLayers("topology.build", "topology.depthbound", "topology.read", "topology.write",
		"mapper.map", "mapper.remap", "mapper.checkpoint", "mapper.restore",
		"routes.compute", "routes.verify", "mapd.store_open", "mapd.store_commit",
		"faults.generate", "faults.apply")
	b.layer("mapper.checkpoints", float64(len(r.ckptBytes)))
	b.layer("mapper.checkpoint_bytes", r.ckptBytes...)
	b.layer("mapper.remap_probes", r.remapProbes...)
	b.layer("mapd.epoch_bytes", r.epochBytes...)
}

// churnMix is serve-churn's read mix, in percent.
var churnMix = []struct {
	op      string
	percent int
	span    string // the client span of one such read
}{
	{"route", 90, "mapd.rtt_route"}, {"epoch", 4, "mapd.rtt_epoch"}, {"metrics", 3, "mapd.rtt_metrics"},
	{"topo", 2, "mapd.rtt_topo"}, {"load", 1, "mapd.rtt_load"},
}

// reader is serve-churn's connection A: closed-loop batches of the seeded
// mix, pipeline requests in flight, until told to stop.
type reader struct {
	cl    *client
	reqs  []string // a whole number of batches
	ops   []int    // index into churnMix per request
	stop  atomic.Bool
	track *track

	lat     []float64   // every batch's round trip, microseconds
	queries int         // replies read
	byOp    [][]float64 // traced: single round trips per churnMix op
	failed  []string    // every reply that was not ok:true
	took    time.Duration
	err     error
}

// probeEvery is how often a traced reader sends a batch one request at a
// time instead, for the per-op round trips beside a heal.
const probeEvery = 16

func (rd *reader) run(wg *sync.WaitGroup) {
	defer wg.Done()
	start := time.Now()
	prev := start
	for n := 0; !rd.stop.Load() && rd.err == nil; n++ {
		k := n * pipeline % len(rd.reqs)
		if rd.track != nil && n%probeEvery == 0 {
			rd.probe(k)
		} else {
			rd.batch(k)
		}
		now := time.Now()
		rd.lat = append(rd.lat, float64(now.Sub(prev))/float64(time.Microsecond))
		prev = now
	}
	rd.took = prev.Sub(start)
}

func (rd *reader) check(raw []byte) {
	rd.queries++
	if !bytes.Contains(raw, okTrue) {
		rd.failed = append(rd.failed, firstLine(string(raw)))
	}
}

// batch sends the pipeline requests from the k-th on and reads their replies.
func (rd *reader) batch(k int) {
	rd.track.begin("mapd.rtt_batch", int64(k))
	defer rd.track.end()
	if rd.err = rd.cl.send(rd.reqs[k : k+pipeline]...); rd.err != nil {
		return
	}
	for i := 0; i < pipeline; i++ {
		raw, err := rd.cl.recv()
		if err != nil {
			rd.err = err
			return
		}
		rd.check(raw)
	}
}

// probe sends the same requests one at a time and times each.
func (rd *reader) probe(k int) {
	for i := k; i < k+pipeline; i++ {
		op := rd.ops[i]
		start := time.Now()
		rd.track.begin(churnMix[op].span, int64(i))
		raw, err := rd.cl.call(rd.reqs[i])
		rd.track.end()
		if err != nil {
			rd.err = err
			return
		}
		rd.byOp[op] = append(rd.byOp[op], float64(time.Since(start))/float64(time.Microsecond))
		rd.check(raw)
	}
}

// life is what one daemon life of serve-churn measured.
type life struct {
	heals          []float64 // ms, inject sent until the reply carrying the new epoch
	p50us, p99us   float64
	qps            float64
	rss            float64
	walPerHeal     float64
	byOp           [][]float64
	refused, fails float64
	info           startInfo
}

// churnLife runs one daemon from cold start through b.sz.injects heals.
func (b *bench) churnLife(n int, mix []string, ops []int, t *track) (*life, error) {
	s, err := b.serve(b.sz.churnGen, t)
	if err != nil {
		return nil, err
	}
	defer s.close()
	connB, err := dialClient(s.d.sock)
	if err != nil {
		return nil, err
	}
	defer connB.close()

	rd := &reader{cl: s.cl, reqs: mix, ops: ops, byOp: make([][]float64, len(churnMix))}
	if t != nil {
		rd.track = b.tr.newTrack()
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go rd.run(&wg)
	stopReader := func() { rd.stop.Store(true); wg.Wait() }

	lf := &life{info: s.info}
	epoch := s.info.first.Epoch
	for k := 0; k < b.sz.injects && b.ctx.Err() == nil; k++ {
		spec := fmt.Sprintf("seed=%d,cuts=1", uint64(b.opt.seed)*1000+uint64(n*b.sz.injects+k))
		req := fmt.Sprintf(`{"op":"inject","spec":%q}`, spec)
		start := time.Now()
		t.begin("mapd.heal", int64(k))
		raw, err := connB.call(req)
		t.end()
		ms := sinceMs(start)
		if err != nil {
			stopReader()
			return nil, fmt.Errorf("inject %s: %w: %s", spec, err, firstLine(s.d.log.String()))
		}
		b.attempt(1)
		rep, err := parseReply(raw)
		switch {
		case err != nil:
			b.fail("inject %s: %v", spec, err)
		case !rep.OK:
			b.fail("inject %s: %s", spec, firstLine(string(raw)))
		case rep.Epoch <= epoch:
			b.fail("inject %s: epoch %d does not advance past %d", spec, rep.Epoch, epoch)
		default:
			lf.heals = append(lf.heals, ms)
		}
		epoch = max(epoch, rep.Epoch)
		if err := s.tr.cut(spec, nil); err != nil {
			stopReader()
			return nil, err
		}
		time.Sleep(b.sz.think)
	}
	stopReader()
	if rd.err != nil {
		return nil, fmt.Errorf("reader: %w: %s", rd.err, firstLine(s.d.log.String()))
	}
	b.attempt(rd.queries)
	for _, f := range rd.failed {
		b.fail("read beside heal: %s", f)
	}
	sort.Float64s(rd.lat)
	lf.p50us, lf.p99us = percentile(rd.lat, 50), percentile(rd.lat, 99)
	lf.qps = float64(rd.queries) / rd.took.Seconds()
	lf.byOp = rd.byOp

	// The map the daemon ends on must be the map of the fabric with the
	// same cuts applied by the harness's own replay.
	b.attempt(1)
	raw, err := connB.call(`{"op":"topo"}`)
	if err != nil {
		return nil, err
	}
	if rep, err := parseReply(raw); err != nil || !rep.OK {
		b.fail("final topo: %s", firstLine(string(raw)))
	} else if err := s.tr.checkMap(rep.Network); err != nil {
		b.fail("final map after %d cuts: %v", b.sz.injects, err)
	}

	m, err := daemonMetrics(connB)
	if err != nil {
		return nil, err
	}
	if h := float64(m.Metrics["mapd.epoch.commits"] - 1); h > 0 {
		// The initial map job appends exactly one step record.
		lf.walPerHeal = float64(m.Metrics["mapd.wal.appends"]-1) / h
	}
	lf.refused, lf.fails = float64(m.Refused), float64(m.FailedReads)
	lf.rss = s.d.peakRSSMB()
	return lf, s.stop()
}

// serveChurn is reads beside writes.
func (b *bench) serveChurn() error {
	var mix []string
	var ops []int
	err := b.setup(func() error {
		s, err := b.serve(b.sz.churnGen, nil)
		if err != nil {
			return err
		}
		defer s.close()
		mix, ops = mix[:0], ops[:0]
		rng := b.rng(2)
		for i := 0; i < 8192; i++ {
			roll, op := rng.Intn(100), 0
			for roll >= churnMix[op].percent {
				roll -= churnMix[op].percent
				op++
			}
			req := fmt.Sprintf(`{"op":%q}`, churnMix[op].op)
			if op == 0 {
				req = s.reqs[i%len(s.reqs)]
			}
			mix, ops = append(mix, req), append(ops, op)
		}
		return s.stop()
	})
	if err != nil {
		return err
	}

	tk := b.tr.newTrack()
	plain, traced, err := repeat(b, tk, 0.5, func(n int, t *track) (lf *life, err error) {
		speed, err := b.spd.around(func() (err error) {
			lf, err = b.churnLife(n, mix, ops, t)
			return
		})
		if err != nil {
			return nil, err
		}
		// Everything timed in the life, at reference speed (calib.go).
		for i := range lf.heals {
			lf.heals[i] *= speed
		}
		lf.p50us, lf.p99us, lf.qps = lf.p50us*speed, lf.p99us*speed, lf.qps/speed
		return lf, nil
	})
	if err != nil {
		return err
	}

	// A life is a repetition: its median and 90th-percentile heal are what
	// the end-to-end metrics take their fast quartile over.
	var heals, lifeHeal, lifeP90, p50, p99, qps, rss []float64
	for _, lf := range plain {
		if len(lf.heals) > 0 {
			lifeHeal = append(lifeHeal, medianOf(lf.heals))
			lifeP90 = append(lifeP90, percentile(sortedCopy(lf.heals), 90))
		}
		heals = append(heals, lf.heals...)
		p50, p99 = append(p50, lf.p50us), append(p99, lf.p99us)
		qps, rss = append(qps, lf.qps), append(rss, lf.rss)
	}
	if len(heals) == 0 {
		return fmt.Errorf("no heal completed")
	}
	p90 := percentile(sortedCopy(heals), 90)
	b.named("heal_ms", heals...)
	b.named("query_qps", qps...)
	b.named("query_p50_us", p50...)
	b.named("query_p99_us", p99...)
	b.named("daemon_rss_mb", rss...)
	b.e2e("latency_ms", lifeHeal...)
	b.e2e("tail_ms", lifeP90...)
	b.e2e("throughput", qps...)
	if b.tr == nil {
		return nil
	}

	var theals, wal, refused, fails, spawn, polls []float64
	byOp := make([][]float64, len(churnMix))
	for _, lf := range traced {
		theals = append(theals, lf.heals...)
		for op := range byOp {
			byOp[op] = append(byOp[op], lf.byOp[op]...)
		}
	}
	for _, lf := range append(plain, traced...) {
		wal = append(wal, lf.walPerHeal)
		refused, fails = append(refused, lf.refused), append(fails, lf.fails)
		spawn, polls = append(spawn, lf.info.spawnMs), append(polls, float64(lf.info.polls))
	}
	b.layer("trace.overhead_pct", 100*(medianOf(theals)-medianOf(heals))/medianOf(heals))
	b.layer("mapd.heal_p90_ms", p90)
	b.layer("proc.peak_rss_mb", rss...)
	b.layer("mapd.wal_appends_per_heal", wal...)
	b.layer("mapd.refused", refused...)
	b.layer("mapd.failed_reads", fails...)
	b.layer("mapd.spawn_ms", b.ref(spawn...)...)
	b.layer("mapd.start_polls", polls...)
	for op, m := range churnMix {
		if m.op == "load" {
			// Every publish drops the per-snapshot cache, so under churn
			// a load query is cold as often as it is warm.
			b.layer("mapd.rtt_load_warm_us", b.ref(byOp[op]...)...)
			continue
		}
		b.layer("mapd.rtt_"+m.op+"_us", b.ref(byOp[op]...)...)
	}

	// One life replayed in-process attributes a heal to its layers.
	dir, err := b.stateDir()
	if err != nil {
		return err
	}
	r, _, err := b.replicaColdStart(b.sz.churnGen, dir, tk, 0)
	if err != nil {
		return err
	}
	var attributed []float64
	for k := 0; k < b.sz.injects; k++ {
		a, err := r.heal(fmt.Sprintf("seed=%d,cuts=1", uint64(b.opt.seed)*1000+uint64(k)), int64(k))
		if err != nil {
			return err
		}
		attributed = append(attributed, a)
	}
	b.layer("mapd.unattributed_ms.heal", medianOf(heals)-medianOf(attributed))
	b.layer("trace.coverage", medianOf(attributed)/medianOf(heals))
	b.replicaLayers(r)
	return nil
}
