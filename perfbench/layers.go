package main

import (
	"fmt"

	"pacman/internal/sched"
)

// layerAcc accumulates the per-layer figures of traced rounds. Each round
// is added as soon as it ends and its request records are dropped, so the
// run's live heap does not grow with the number of rounds.
type layerAcc struct {
	clientSubmit, genLate, clientRTT, srvDurable  []float64
	feSubmit, exec, commitWait, lat               []float64
	queueFill, pepochLag                          []float64
	syncEWMA, syncsPerS, bytesPerSync, reclaimed  []float64
	logTotal, other, reloadWall, reloadCPU, stall []float64
	rebuild, entries, logMB                       []float64
	work, check, load, schedPhase, gdg, serial    []float64

	rounds, backpress, shed, rollbacks, attempted, unlinked int
	maxChain                                                int64
	// requests and restarts sum the spanLogs' tilings.
	requests, restarts tiling

	self  map[string]int64 // self time by span name, ns
	roots map[string]int   // root spans by name
	last  *spanLog         // the latest traced round's spans
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// add takes one traced round's figures and spans.
func (a *layerAcc) add(r *round, calls []call) {
	l := r.layer
	c := float64(r.outcomes[committed])
	a.rounds++
	a.rollbacks += r.outcomes[rolledBack]
	a.attempted += len(r.recs)
	for i := range r.recs {
		rc := &r.recs[i]
		if rc.out != committed {
			continue
		}
		a.lat = append(a.lat, ms(rc.latency()))
		if rc.due != 0 {
			a.clientSubmit = append(a.clientSubmit, us(rc.ret-rc.call))
			a.genLate = append(a.genLate, ms(rc.call-rc.due))
			a.clientRTT = append(a.clientRTT, ms(rc.done-rc.call))
			continue
		}
		a.feSubmit = append(a.feSubmit, us(rc.ret-rc.call))
		a.exec = append(a.exec, us(rc.execAt-rc.start))
		a.commitWait = append(a.commitWait, ms(rc.durableAt-rc.execAt))
	}
	for _, s := range l.srv {
		if s.fut.Err() != nil {
			continue
		}
		a.srvDurable = append(a.srvDurable, ms(s.fut.DurableAt().UnixNano()-s.admit))
		a.feSubmit = append(a.feSubmit, us(s.ret-s.admit))
		a.exec = append(a.exec, us(s.fut.ExecLatency().Nanoseconds()))
		a.commitWait = append(a.commitWait, ms(s.fut.DurableAt().Sub(s.fut.ExecAt()).Nanoseconds()))
	}
	a.backpress += int(l.backpress)
	a.shed += int(l.shed)
	a.queueFill = append(a.queueFill, l.queueFill...)
	a.pepochLag = append(a.pepochLag, l.pepochLag...)
	a.syncEWMA = append(a.syncEWMA, us(l.syncEWMA.Nanoseconds()))
	a.syncsPerS = append(a.syncsPerS, float64(l.syncs)/r.forward.Seconds())
	a.bytesPerSync = append(a.bytesPerSync, ratio(float64(r.logBytes), float64(l.syncs)))
	a.reclaimed = append(a.reclaimed, ratio(float64(l.mvcc.Reclaimed), c))
	a.maxChain = max(a.maxChain, l.mvcc.MaxChain)

	res := r.res
	a.logTotal = append(a.logTotal, res.LogTotal.Seconds())
	a.other = append(a.other, (r.restart - res.LogTotal).Seconds())
	a.reloadWall = append(a.reloadWall, res.ReloadWall.Seconds())
	a.reloadCPU = append(a.reloadCPU, res.LogReload.Seconds())
	a.stall = append(a.stall, res.ReloadStall.Seconds())
	a.rebuild = append(a.rebuild, res.IndexRebuild.Seconds())
	a.entries = append(a.entries, float64(res.Entries))
	a.logMB = append(a.logMB, float64(res.LogBytes)/1e6)
	bd := l.breakdown
	a.work = append(a.work, bd.Get(sched.PhaseWork).Seconds())
	a.check = append(a.check, bd.Get(sched.PhaseCheck).Seconds())
	a.load = append(a.load, bd.Get(sched.PhaseLoad).Seconds())
	a.schedPhase = append(a.schedPhase, bd.Get(sched.PhaseSched).Seconds())
	a.gdg = append(a.gdg, ms(l.gdg.Nanoseconds()))
	a.serial = append(a.serial, l.serialCLR.Seconds())

	spans, unlinked := traceRound(r, calls)
	a.unlinked += unlinked
	byName, roots := selfTimes(spans.spans)
	if a.self == nil {
		a.self, a.roots = map[string]int64{}, map[string]int{}
	}
	for k, v := range byName {
		a.self[k] += v
	}
	for k, v := range roots {
		a.roots[k] += v
	}
	a.requests.add(spans.requests)
	a.restarts.add(spans.restarts)
	a.last = spans
}

// maxMovedFrac bounds how far tile may move the measured span boundaries
// of requests, and of restarts, summed, as a share of their root spans.
// Overlap that the serial span model cannot show (a worker executing a
// request before Submit returns) moves them by tens of microseconds per
// request; readings that disagree in earnest (timestamps on another time
// base, phase totals beyond the wall time they are placed in) by far more.
const maxMovedFrac = 0.05

// rows computes the per-layer metrics, and the tracing overhead as the
// traced rounds' end-to-end figures minus the untraced rounds'. It fails
// when the spans had to be moved by more than maxMovedFrac to tile.
func (a *layerAcc) rows(plain, traced []row) ([]row, error) {
	for _, k := range []struct {
		kind string
		t    tiling
	}{{"request", a.requests}, {"restart", a.restarts}} {
		if f := k.t.frac(); f > maxMovedFrac {
			return nil, fmt.Errorf("%s span boundaries moved by %.4f of their length to tile (%d boundaries), more than %.2f", k.kind, f, k.t.movedN, maxMovedFrac)
		}
	}
	overhead := func(name string) float64 {
		for i := range plain {
			if plain[i].name == name {
				return traced[i].value - plain[i].value
			}
		}
		return 0
	}
	requests := a.roots["request"] + a.roots["client.request"]
	restarts := a.roots["restart"]
	selfSum := func(names ...string) int64 {
		var t int64
		for _, n := range names {
			t += a.self[n]
		}
		return t
	}
	perRequest := func(names ...string) float64 { return ratio(ms(selfSum(names...)), float64(requests)) }
	perRestart := func(names ...string) float64 {
		return ratio(float64(selfSum(names...))/1e9, float64(restarts))
	}
	// The client minus server durable median; zero on in-process
	// workloads, which have neither.
	var wireOverhead float64
	if len(a.clientRTT) > 0 {
		wireOverhead = quantile(a.clientRTT, 0.5) - quantile(a.srvDurable, 0.5)
	}
	n := a.rounds
	return []row{
		{"client.submit_p50_us", "us", orZero(a.clientSubmit, 0.5), len(a.clientSubmit)},
		{"client.gen_late_p99_ms", "ms", orZero(a.genLate, 0.99), len(a.genLate)},
		{"wire.server_durable_p50_ms", "ms", orZero(a.srvDurable, 0.5), len(a.srvDurable)},
		{"wire.server_durable_p99_ms", "ms", orZero(a.srvDurable, 0.99), len(a.srvDurable)},
		{"wire.overhead_p50_ms", "ms", wireOverhead, len(a.clientRTT)},
		{"wire.backpressure", "count", float64(a.backpress), n},
		{"frontend.submit_p50_us", "us", quantile(a.feSubmit, 0.5), len(a.feSubmit)},
		{"frontend.submit_p99_us", "us", quantile(a.feSubmit, 0.99), len(a.feSubmit)},
		{"frontend.queue_fill", "ratio", mean(a.queueFill), len(a.queueFill)},
		{"frontend.shed", "count", float64(a.shed), n},
		{"txn.exec_p50_us", "us", quantile(a.exec, 0.5), len(a.exec)},
		{"txn.exec_p99_us", "us", quantile(a.exec, 0.99), len(a.exec)},
		{"txn.rollback_frac", "ratio", ratio(float64(a.rollbacks), float64(a.attempted)), a.attempted},
		{"wal.commit_wait_p50_ms", "ms", quantile(a.commitWait, 0.5), len(a.commitWait)},
		{"wal.commit_wait_p99_ms", "ms", quantile(a.commitWait, 0.99), len(a.commitWait)},
		{"wal.sync_ewma_us", "us", median(a.syncEWMA), n},
		{"wal.syncs_per_s", "1/s", median(a.syncsPerS), n},
		{"wal.bytes_per_sync", "B", median(a.bytesPerSync), n},
		{"wal.pepoch_lag_epochs", "epochs", mean(a.pepochLag), len(a.pepochLag)},
		{"mvcc.reclaimed_per_txn", "count", median(a.reclaimed), n},
		{"mvcc.max_chain", "count", float64(a.maxChain), n},
		{"recovery.log_total_s", "s", median(a.logTotal), n},
		{"recovery.other_s", "s", median(a.other), n},
		{"wal.reload_wall_s", "s", median(a.reloadWall), n},
		{"wal.reload_cpu_s", "s", median(a.reloadCPU), n},
		{"recovery.reload_stall_s", "s", median(a.stall), n},
		{"recovery.index_rebuild_s", "s", median(a.rebuild), n},
		{"recovery.entries", "count", median(a.entries), n},
		{"recovery.log_mb", "MB", median(a.logMB), n},
		{"sched.work_s", "s", median(a.work), n},
		{"sched.check_s", "s", median(a.check), n},
		{"sched.load_s", "s", median(a.load), n},
		{"sched.sched_s", "s", median(a.schedPhase), n},
		{"analysis.gdg_ms", "ms", median(a.gdg), n},
		{"recovery.serial_clr_s", "s", median(a.serial), n},
		{"durable_p999_ms", "ms", quantile(a.lat, 0.999), len(a.lat)},
		{"durable_n", "count", float64(len(a.lat)), n},
		{"self.client_ms", "ms", perRequest("client.gen_late", "client.submit"), requests},
		{"self.wire_ms", "ms", perRequest("wire.up", "wire.server", "wire.down", "wire.roundtrip"), requests},
		{"self.frontend_ms", "ms", perRequest("frontend.submit"), requests},
		{"self.txn_ms", "ms", perRequest("txn.exec"), requests},
		{"self.wal_ms", "ms", perRequest("wal.commit"), requests},
		{"self.restart.other_s", "s", perRestart("recovery.other"), restarts},
		{"self.restart.reload_s", "s", perRestart("wal.reload"), restarts},
		{"self.restart.replay_s", "s", perRestart("sched.check", "sched.sched", "sched.work", "recovery.replay", "recovery.index_rebuild"), restarts},
		{"trace.unlinked", "count", float64(a.unlinked), n},
		{"trace.request_moved_frac", "ratio", a.requests.frac(), a.requests.movedN},
		{"trace.restart_moved_frac", "ratio", a.restarts.frac(), a.restarts.movedN},
		{"trace.overhead_commit_tps", "1/s", overhead("commit_tps"), n},
		{"trace.overhead_durable_p50_ms", "ms", overhead("durable_p50_ms"), n},
		{"trace.overhead_durable_p99_ms", "ms", overhead("durable_p99_ms"), n},
		{"trace.overhead_recovery_s", "s", overhead("recovery_s"), n},
	}, nil
}

// orZero is the q-quantile of xs, or 0 when the workload has no such
// samples (the client and wire rows of an in-process workload).
func orZero(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}
