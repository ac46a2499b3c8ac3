package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"pacman"
	"pacman/internal/sched"
)

// span is one timed interval at a layer boundary. Spans of one request or
// one restart share a trace id; Parent is 0 for the root.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; ids are positions + 1, so a parent always
// precedes its children. It keeps apart, for requests and for restarts,
// how far tile had to move measured boundaries to make them tile.
type spanLog struct {
	spans              []span
	traces             int
	requests, restarts tiling
}

// tiling sums the root spans of one kind and how far tile moved their
// measured boundaries: moved in ns, over movedN boundaries.
type tiling struct {
	rootNs, moved int64
	movedN        int
}

// add sums another tiling into t.
func (t *tiling) add(o tiling) {
	t.rootNs += o.rootNs
	t.moved += o.moved
	t.movedN += o.movedN
}

// frac is the distance moved as a share of the root spans' length.
func (t *tiling) frac() float64 { return ratio(float64(t.moved), float64(t.rootNs)) }

func (l *spanLog) newTrace() int {
	l.traces++
	return l.traces
}

func (l *spanLog) add(trace, parent int, name string, start, end int64) int {
	l.spans = append(l.spans, span{Trace: trace, ID: len(l.spans) + 1, Parent: parent, Name: name, Start: start, End: end})
	return len(l.spans)
}

// tile adds consecutive children of parent, child i spanning
// [b[i], b[i+1]]. The boundaries are readings of one request or restart
// taken on different goroutines (the Submit call, the Future, the server)
// or derived from reported totals, and they need not be in order: a worker
// can execute a request before Submit returns to its caller, and reported
// phase totals can exceed the wall time they are placed in. tile clamps
// the inner boundaries into [b[0], b[last]] and makes them non-decreasing,
// so the children cover the parent exactly and the self times under a root
// sum to its length by construction. How far it moved them is added to
// tl, so the run can report the distortion and fail when it is large. It
// returns the clamped boundaries.
func (l *spanLog) tile(tl *tiling, trace, parent int, names []string, b ...int64) []int64 {
	lo, hi := b[0], b[len(b)-1]
	for i := 1; i < len(b)-1; i++ {
		c := min(max(b[i], b[i-1], lo), hi)
		if c != b[i] {
			tl.moved += max(c-b[i], b[i]-c)
			tl.movedN++
		}
		b[i] = c
	}
	for i, name := range names {
		l.add(trace, parent, name, b[i], b[i+1])
	}
	return b
}

// requestSpans records one committed request: the root, and under it the
// layers it crossed. In process: frontend.submit (inside Submit),
// txn.exec (queue, execute, validate), wal.commit (group commit until the
// durable ack). Over the wire: client.gen_late (due until sent),
// client.submit, wire.up, wire.server (with the three in-process layers
// beneath it) and wire.down (result frame until the caller saw it).
func (l *spanLog) requestSpans(r *rec, srv *srvSub) {
	t := l.newTrace()
	tl := &l.requests
	if r.due == 0 {
		tl.rootNs += r.durableAt - r.call
		root := l.add(t, 0, "request", r.call, r.durableAt)
		l.tile(tl, t, root, []string{"frontend.submit", "txn.exec", "wal.commit"}, r.call, r.ret, r.execAt, r.durableAt)
		return
	}
	tl.rootNs += r.done - r.due
	root := l.add(t, 0, "client.request", r.due, r.done)
	if srv == nil {
		l.tile(tl, t, root, []string{"client.gen_late", "client.submit", "wire.roundtrip"}, r.due, r.call, r.ret, r.done)
		return
	}
	b := l.tile(tl, t, root, []string{"client.gen_late", "client.submit", "wire.up", "wire.server", "wire.down"},
		r.due, r.call, r.ret, srv.admit, srv.fut.DurableAt().UnixNano(), r.done)
	srvID := len(l.spans) - 1
	l.tile(tl, t, srvID, []string{"frontend.submit", "txn.exec", "wal.commit"}, b[3], srv.ret, srv.fut.ExecAt().UnixNano(), b[4])
}

// restartSpans records one restart: recovery.other (Restart minus
// LogTotal: manifest, seed replay, tail repair, start; the API reports its
// total only, so it is placed first) and recovery.log. Under recovery.log:
// wal.reload (replay blocked on reload), the replay phases and PLR's index
// rebuild. The Breakdown sums thread time, so its check/sched/work shares
// are scaled onto the replay's wall time.
func (l *spanLog) restartSpans(start, end int64, res *pacman.RecoveryResult, bd *pacman.Breakdown) {
	t := l.newTrace()
	tl := &l.restarts
	tl.rootNs += end - start
	root := l.add(t, 0, "restart", start, end)
	logStart := end - res.LogTotal.Nanoseconds()
	b := l.tile(tl, t, root, []string{"recovery.other", "recovery.log"}, start, logStart, end)
	logID := len(l.spans)
	logStart = b[1]
	reloadEnd := logStart + res.ReloadStall.Nanoseconds()
	replayEnd := end - res.IndexRebuild.Nanoseconds()
	names := []string{"wal.reload"}
	bounds := []int64{logStart, reloadEnd}
	phases := []string{sched.PhaseCheck, sched.PhaseSched, sched.PhaseWork}
	var total time.Duration
	for _, p := range phases {
		total += bd.Get(p)
	}
	if total > 0 {
		at := float64(reloadEnd)
		for _, p := range phases {
			at += float64(replayEnd-reloadEnd) * float64(bd.Get(p)) / float64(total)
			names = append(names, "sched."+shortPhase[p])
			bounds = append(bounds, int64(at))
		}
		bounds[len(bounds)-1] = replayEnd
	} else {
		names = append(names, "recovery.replay")
		bounds = append(bounds, replayEnd)
	}
	names = append(names, "recovery.index_rebuild")
	bounds = append(bounds, end)
	l.tile(tl, t, logID, names, bounds...)
}

// shortPhase names the Figure 20 replay phases in span names; the load
// phase is the reload stall, recorded as wal.reload.
var shortPhase = map[string]string{
	sched.PhaseWork:  "work",
	sched.PhaseCheck: "check",
	sched.PhaseSched: "sched",
}

// selfTimes derives every span's self time (its duration minus the part
// of it its children cover) and sums them by name; it also counts the root
// spans by name.
func selfTimes(spans []span) (byName map[string]int64, roots map[string]int) {
	children := make([][]int, len(spans)+1)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s.ID)
	}
	byName = map[string]int64{}
	roots = map[string]int{}
	for _, s := range spans {
		if s.Parent == 0 {
			roots[s.Name]++
		}
		byName[s.Name] += s.End - s.Start - covered(spans, s, children[s.ID])
	}
	return byName, roots
}

// covered is the length of the union of the children's intervals clipped
// to s.
func covered(spans []span, s span, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := spans[k-1]
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var n, end int64
	for i, v := range ivs {
		if i == 0 || v.lo > end {
			n += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			n += v.hi - end
			end = v.hi
		}
	}
	return n
}

// traceRound turns a traced round into spans. Wire requests are linked to
// the server's admissions by position: one connection, one generator and
// no backpressure retries keep both in send order, and the procedure and
// arguments must match for a link to count.
func traceRound(r *round, calls []call) (*spanLog, int) {
	l := &spanLog{}
	unlinked := 0
	srv := r.layer.srv
	for i := range r.recs {
		rc := &r.recs[i]
		if rc.out != committed {
			continue
		}
		var sub *srvSub
		if rc.due != 0 {
			if i < len(srv) && srv[i].fut.Err() == nil && srv[i].proc == calls[i].proc && reflect.DeepEqual(srv[i].args, calls[i].args) {
				sub = &srv[i]
			} else {
				unlinked++
			}
		}
		l.requestSpans(rc, sub)
	}
	l.restartSpans(r.layer.restartAt, r.layer.restartEnd, r.res, r.layer.breakdown)
	return l, unlinked
}

// sampleSpans keeps every restart's spans and those of every n-th request,
// so the written file stays small while each kept trace is whole.
func sampleSpans(spans []span, n int) []span {
	keep := map[int]bool{}
	var out []span
	for _, s := range spans {
		if s.Parent == 0 {
			keep[s.Trace] = s.Name == "restart" || (s.Trace-1)%n == 0
		}
		if keep[s.Trace] {
			out = append(out, s)
		}
	}
	return out
}

// writeSpans writes spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
