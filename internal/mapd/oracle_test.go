package mapd

import (
	"bytes"
	"encoding/json"
	"fmt"

	"sanmap/internal/loadsim"
	"sanmap/internal/simnet"
	"sanmap/internal/topology"
)

// The reference the append encoder is held to: the serve path as it was
// when every reply was a map[string]any put through encoding/json, kept
// verbatim (minus the per-snapshot replay cache, which changes no byte) so
// that differential_test.go can demand byte identity reply by reply.

// oracleAnswer is one iteration of the old serveConn loop: decode, handle,
// encode, and the outcome it sniffed back out of the map for the counters.
func oracleAnswer(s *Server, line []byte) ([]byte, outcome, wireRequest) {
	var req wireRequest
	var resp map[string]any
	if err := json.Unmarshal(line, &req); err != nil {
		resp = map[string]any{"ok": false, "error": "bad request: " + err.Error()}
	} else {
		resp = oracleHandle(s, req)
	}
	res := served
	if ok, _ := resp["ok"].(bool); !ok {
		res = failed
		if r, _ := resp["refused"].(bool); r {
			res = refused
		}
	}
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(resp); err != nil {
		panic(err)
	}
	return b.Bytes(), res, req
}

func oracleHandle(s *Server, req wireRequest) map[string]any {
	snap := s.snap.Load()
	switch req.Op {
	case "ping":
		resp := map[string]any{"ok": true, "op": "ping"}
		if snap != nil {
			resp["epoch"] = snap.Epoch
		}
		return resp
	case "epoch":
		if snap == nil {
			return oracleNoEpoch("epoch")
		}
		return map[string]any{
			"ok": true, "op": "epoch",
			"epoch": snap.Epoch, "job": snap.Job, "resumed": snap.Resumed,
			"level": levelName(snap.Level), "confidence": snap.Confidence,
			"partial": snap.Partial, "suspects": len(snap.Suspects),
			"probes": snap.Probes, "vclock_ns": int64(snap.VClock),
		}
	case "topo":
		if snap == nil {
			return oracleNoEpoch("topo")
		}
		var b bytes.Buffer
		if err := snap.Net.Write(&b); err != nil {
			return map[string]any{"ok": false, "op": "topo", "error": err.Error()}
		}
		return map[string]any{
			"ok": true, "op": "topo", "epoch": snap.Epoch,
			"hosts": snap.Net.NumHosts(), "switches": snap.Net.NumSwitches(),
			"wires": snap.Net.NumWires(), "network": b.String(),
		}
	case "route":
		return oracleRouteAnswer(snap, req.From, req.To)
	case "metrics":
		if snap == nil {
			return oracleNoEpoch("metrics")
		}
		return map[string]any{
			"ok": true, "op": "metrics", "epoch": snap.Epoch,
			"metrics": snap.Metrics,
			"queries": s.queries.Load(), "refused": s.refused.Load(),
			"failed_reads": s.failedReads.Load(),
		}
	case "load":
		return oracleLoadAnswer(snap)
	case "inject", "remap":
		return oracleWorldCmd(s, req)
	case "stop":
		return map[string]any{"ok": true, "op": "stop"}
	}
	return map[string]any{"ok": false, "error": fmt.Sprintf("unknown op %q", req.Op)}
}

func oracleWorldCmd(s *Server, req wireRequest) map[string]any {
	cmd := command{op: req.Op, spec: req.Spec, reply: make(chan cmdReply, 1)}
	select {
	case s.cmds <- cmd:
	case <-s.stop:
		return map[string]any{"ok": false, "op": req.Op, "error": "server shutting down"}
	}
	select {
	case rep := <-cmd.reply:
		if rep.err != nil {
			return map[string]any{"ok": false, "op": req.Op, "error": rep.err.Error(), "epoch": rep.epoch}
		}
		return map[string]any{"ok": true, "op": req.Op, "result": rep.msg, "epoch": rep.epoch}
	case <-s.stop:
		return map[string]any{"ok": false, "op": req.Op, "error": "server shutting down"}
	}
}

func oracleNoEpoch(op string) map[string]any {
	return map[string]any{"ok": false, "op": op, "error": "no epoch committed yet"}
}

func oracleRouteAnswer(snap *Snapshot, from, to string) map[string]any {
	resp := map[string]any{"op": "route", "from": from, "to": to}
	if snap == nil {
		resp["ok"] = false
		resp["error"] = "no epoch committed yet"
		return resp
	}
	resp["epoch"] = snap.Epoch
	if snap.Level != LevelFull {
		resp["degraded"] = levelName(snap.Level)
		resp["confidence"] = snap.Confidence
	}
	src, dst := snap.Net.Lookup(from), snap.Net.Lookup(to)
	if src == topology.None || dst == topology.None {
		resp["ok"] = false
		resp["error"] = "unknown host"
		return resp
	}
	if snap.Table == nil {
		resp["ok"] = false
		resp["error"] = "no route table for this epoch"
		return resp
	}
	route, ok := snap.Table.Route(src, dst)
	if !ok {
		resp["ok"] = false
		resp["error"] = "no route"
		return resp
	}
	wires, _ := snap.Table.WirePath(src, dst)
	if snap.Level == LevelGuarded {
		if bad := crossesSuspect(snap, src, dst, wires); bad != topology.None {
			resp["ok"] = false
			resp["refused"] = true
			resp["error"] = fmt.Sprintf("route crosses suspect node %s", snap.Net.NameOf(bad))
			return resp
		}
	}
	resp["ok"] = true
	resp["route"] = route.String()
	resp["hops"] = len(wires)
	return resp
}

func oracleLoadAnswer(snap *Snapshot) map[string]any {
	resp := map[string]any{"op": "load"}
	if snap == nil {
		return oracleNoEpoch("load")
	}
	resp["epoch"] = snap.Epoch
	if snap.Level != LevelFull {
		resp["degraded"] = levelName(snap.Level)
		resp["confidence"] = snap.Confidence
	}
	if snap.Table == nil {
		resp["ok"] = false
		resp["error"] = "no route table for this epoch"
		return resp
	}
	quality := oracleMeasureQuality(snap)
	if quality == nil {
		resp["ok"] = false
		resp["error"] = "load replay failed (fewer than two hosts?)"
		return resp
	}
	for k, v := range quality {
		resp[k] = v
	}
	resp["ok"] = true
	return resp
}

func oracleMeasureQuality(snap *Snapshot) map[string]any {
	eng, err := loadsim.New(snap.Net, snap.Table, simnet.DefaultTiming(), 512)
	if err != nil {
		return nil
	}
	rep, err := eng.Run(loadProbePlan(snap.Net))
	if err != nil {
		return nil
	}
	return map[string]any{
		"deadlock_free":   rep.DeadlockFree,
		"sent":            rep.Sent,
		"delivered":       rep.Delivered,
		"lost":            rep.Lost,
		"blocked":         rep.Blocked,
		"throughput_bps":  rep.ThroughputBps,
		"p50_ns":          int64(rep.P50),
		"p99_ns":          int64(rep.P99),
		"max_latency_ns":  int64(rep.MaxLatency),
		"peak_util_ppm":   rep.MaxUtilPPM(),
		"congested_links": len(rep.Links),
		"makespan_ns":     int64(rep.Makespan),
	}
}
