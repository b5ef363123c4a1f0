package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// cycle is what one daemon life on the large fabric measured. Times are at
// reference speed: each phase is scaled by the host speed read around it
// (calib.go).
type cycle struct {
	cold, restart startInfo
	coldMs        float64
	restartMs     float64
	heals         []float64 // ms
	rss           float64
	seconds       float64 // the whole cycle
}

// lifeCycle runs: fresh state dir, spawn, first answered route; the cuts;
// stop; respawn on the same dir, first answered route; stop.
func (b *bench) lifeCycle(n int, routeReq string, epoch1 *[]byte, t *track) (*cycle, error) {
	start := time.Now()
	dir, err := b.stateDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir) // large epochs add up over a run
	c := &cycle{}
	var d *daemon
	var cl *client
	// bringUp is one spawn to first answer, cold or on the existing dir.
	bringUp := func(span string, info *startInfo) func() error {
		return func() (err error) {
			t.begin(span, int64(n))
			defer t.end()
			if d, err = b.spawn(b.sz.largeGen, dir); err != nil {
				return err
			}
			if cl, *info, err = b.connect(d, routeReq, t); err != nil {
				d.kill()
			}
			return err
		}
	}

	coldSpeed, err := b.spd.around(bringUp("e2e.cold_start", &c.cold))
	if err != nil {
		return nil, err
	}
	c.coldMs = c.cold.readyMs * coldSpeed
	b.attempt(1)
	epoch := c.cold.first.Epoch

	// Epoch 1 depends only on the spec and the seed, so its file must not
	// differ between cycles.
	b.attempt(1)
	file, err := os.ReadFile(filepath.Join(dir, "epoch-000001.san"))
	switch {
	case err != nil:
		b.fail("cycle %d: %v", n, err)
	case *epoch1 == nil:
		*epoch1 = file
	case !bytes.Equal(*epoch1, file):
		b.fail("cycle %d: epoch-000001.san differs from cycle 0's", n)
	}

	healSpeed, err := b.spd.around(func() error {
		for k := 0; k < 2; k++ {
			spec := fmt.Sprintf("seed=%d,cuts=%d", uint64(b.opt.seed)*1000+uint64(k), b.sz.largeCuts)
			t0 := time.Now()
			t.begin("e2e.heal", int64(n))
			raw, err := cl.call(fmt.Sprintf(`{"op":"inject","spec":%q}`, spec))
			t.end()
			ms := sinceMs(t0)
			if err != nil {
				return fmt.Errorf("inject %s: %w: %s", spec, err, firstLine(d.log.String()))
			}
			b.attempt(1)
			if rep, err := parseReply(raw); err != nil || !rep.OK || rep.Epoch <= epoch {
				b.fail("cycle %d inject %s after epoch %d: %s", n, spec, epoch, firstLine(string(raw)))
			} else {
				epoch = rep.Epoch
				c.heals = append(c.heals, ms)
			}
		}
		return nil
	})
	if err != nil {
		d.kill()
		return nil, err
	}
	for i := range c.heals {
		c.heals[i] *= healSpeed
	}
	c.rss = d.peakRSSMB()
	if err := d.stop(cl); err != nil {
		return nil, err
	}

	restartSpeed, err := b.spd.around(bringUp("e2e.restart", &c.restart))
	if err != nil {
		return nil, err
	}
	c.restartMs = c.restart.readyMs * restartSpeed
	b.attempt(1)
	if c.restart.first.Epoch != epoch {
		b.fail("cycle %d: restart serves epoch %d, stopped at %d", n, c.restart.first.Epoch, epoch)
	}
	if err := d.stop(cl); err != nil {
		return nil, err
	}
	c.seconds = time.Since(start).Seconds() * (coldSpeed + healSpeed + restartSpeed) / 3
	return c, nil
}

// lifecycleLarge is daemon life on the large fabric.
func (b *bench) lifecycleLarge() error {
	var routeReq string
	err := b.setup(func() error {
		tr, err := b.newTruth(b.sz.largeGen, nil)
		if err != nil {
			return err
		}
		p := tr.pairs(b.rng(3), 1)[0]
		routeReq = routeRequest(p[0], p[1])
		return nil
	})
	if err != nil {
		return err
	}

	tk := b.tr.newTrack()
	var epoch1 []byte
	// The in-process replica takes about one more cycle of a traced run.
	plain, traced, err := repeat(b, tk, 0.4, func(n int, t *track) (*cycle, error) {
		return b.lifeCycle(n, routeReq, &epoch1, t)
	})
	if err != nil {
		return err
	}

	var cold, restart, heals, rss, rate []float64
	for _, c := range plain {
		cold, restart = append(cold, c.coldMs), append(restart, c.restartMs)
		heals = append(heals, c.heals...)
		rss, rate = append(rss, c.rss), append(rate, 1/c.seconds)
	}
	b.named("cold_start_ms", cold...)
	b.named("restart_ms", restart...)
	b.named("heal_ms", heals...)
	b.named("daemon_rss_mb", rss...)
	b.e2e("latency_ms", cold...)
	b.e2e("tail_ms", upperQuartile(cold))
	b.e2e("throughput", rate...)
	if b.tr == nil {
		return nil
	}

	var tcold, spawn, polls []float64
	for _, c := range traced {
		tcold = append(tcold, c.coldMs)
	}
	for _, c := range append(plain, traced...) {
		spawn = append(spawn, c.cold.spawnMs, c.restart.spawnMs)
		polls = append(polls, float64(c.cold.polls), float64(c.restart.polls))
	}
	b.layer("trace.overhead_pct", 100*(medianOf(tcold)-medianOf(cold))/medianOf(cold))
	b.layer("mapd.spawn_ms", b.ref(spawn...)...)
	b.layer("mapd.start_polls", polls...)
	b.layer("proc.peak_rss_mb", rss...)

	// The same life in-process, layer by layer.
	dir, err := b.stateDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r, coldAttr, err := b.replicaColdStart(b.sz.largeGen, dir, tk, 0)
	if err != nil {
		return err
	}
	if err := r.verifyRoutes(); err != nil {
		b.fail("replica route table: %v", err)
	}
	var healAttr []float64
	for k := 0; k < 2; k++ {
		a, err := r.heal(fmt.Sprintf("seed=%d,cuts=%d", uint64(b.opt.seed)*1000+uint64(k), b.sz.largeCuts), int64(k))
		if err != nil {
			return err
		}
		healAttr = append(healAttr, a)
	}
	r2, restartAttr, err := b.replicaRestart(b.sz.largeGen, dir, tk, 0)
	if err != nil {
		return err
	}
	if err := r2.restore(); err != nil { // what the first heal after a restart would add
		return err
	}
	b.layer("mapd.unattributed_ms.cold_start", medianOf(cold)-coldAttr)
	b.layer("mapd.unattributed_ms.heal", medianOf(heals)-medianOf(healAttr))
	b.layer("mapd.unattributed_ms.restart", medianOf(restart)-restartAttr)
	b.layer("trace.coverage", coldAttr/medianOf(cold))
	r.ckptBytes = append(r.ckptBytes, r2.ckptBytes...)
	b.replicaLayers(r)
	return nil
}
