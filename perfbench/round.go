package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pacman"
	"pacman/client"
	"pacman/internal/proc"
	"pacman/internal/wire"
)

// errHung reports a wait that outlived the run's deadline: a future, a
// restart or a shutdown that never finished. It fails the run with a
// report instead of stalling the benchmark.
var errHung = errors.New("wait passed the run deadline")

// now is wall-clock Unix nanoseconds, the time base every record shares
// with the Future timestamps (Start, ExecAt, DurableAt).
func now() int64 { return time.Now().UnixNano() }

// outcome classifies one attempted call.
type outcome uint8

const (
	unresolved outcome = iota
	committed
	rolledBack // designed rollback (call.mayAbort and proc.ErrAborted)
	failed
)

// rec is one request's timeline in Unix nanoseconds. due is the open
// loop's schedule (zero in the closed loop); call/ret bracket the Submit
// call; start/execAt/durableAt come from the in-process Future; done is
// when the benchmark saw a wire future resolve.
type rec struct {
	due, call, ret, done     int64
	start, execAt, durableAt int64
	out                      outcome
	err                      error // set when out is failed
}

// latency is the request's durable latency: due (open loop) or submit
// (closed loop) to the durable ack.
func (r *rec) latency() int64 {
	if r.due != 0 {
		return r.done - r.due
	}
	return r.durableAt - r.call
}

// round is what one launch → drive → crash → restart cycle measured.
type round struct {
	traced bool

	setup     time.Duration
	forward   time.Duration
	recs      []rec
	attempted int
	outcomes  [4]int
	// p50 and p99 are the exact durable-latency percentiles of the
	// committed requests, in milliseconds.
	p50, p99 float64
	heapMB   float64
	logBytes int64
	mallocs  uint64

	restart        time.Duration
	res            *pacman.RecoveryResult
	restartMallocs uint64

	// steal is the share of the CPU time demanded over the whole round
	// that the hypervisor withheld (stealShare).
	steal float64

	// Traced rounds only.
	layer *layerSample
}

// layerSample holds what a traced round read from the layers' public
// surfaces.
type layerSample struct {
	srv        []srvSub // wire server admissions, in admission order
	backpress  uint64
	queueFill  []float64
	pepochLag  []float64
	shed       int64
	syncEWMA   time.Duration
	syncs      int64
	mvcc       pacman.MVCCStats
	breakdown  *pacman.Breakdown
	serialCLR  time.Duration
	gdg        time.Duration
	restartAt  int64
	restartEnd int64
}

// runRound launches a fresh instance from bp, drives calls through it,
// crashes it once every future has resolved, restarts it on the same
// devices and checks that the recovered state equals the pre-crash state.
// Every wait ends at stop; a wait cut short returns errHung.
func runRound(w workloadDef, bp pacman.Blueprint, calls []call, traced bool, stop <-chan struct{}) (*round, error) {
	r := &round{traced: traced, recs: make([]rec, len(calls))}
	if traced {
		r.layer = &layerSample{}
	}
	runtime.GC()

	cpu0 := readCPU()
	t0 := time.Now()
	db, err := pacman.Launch(bp, pacman.Options{
		Logging:       w.logging,
		Devices:       devices,
		EpochInterval: epoch,
	})
	if err != nil {
		return nil, fmt.Errorf("launch: %w", err)
	}
	var drive func() error
	var shutdown func()
	var fe *pacman.Frontend
	if w.wire {
		drive, shutdown, fe, err = wireLoad(db, calls, w.rate, r, stop)
	} else {
		fe, err = db.NewFrontend(pacman.FrontendConfig{Workers: frontendWorkers})
		if err == nil {
			drive = func() error {
				return bounded(stop, "closed loop", func() error { return closedLoop(fe, calls, w.window, r, stop) })
			}
			shutdown = fe.Close
		}
	}
	if err != nil {
		db.Crash()
		return nil, fmt.Errorf("serve: %w", err)
	}
	r.setup = time.Since(t0)
	if traced {
		start := time.Now()
		db.Analyze()
		r.layer.gdg = time.Since(start)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	bytes0 := deviceBytes(db)
	var sampleStop chan struct{}
	var sampled sync.WaitGroup
	if traced {
		sampleStop = make(chan struct{})
		sampled.Add(1)
		go func() {
			defer sampled.Done()
			sampleLayers(db, fe, r.layer, sampleStop)
		}()
	}
	fwdStart := time.Now()
	err = drive()
	r.forward = time.Since(fwdStart)
	if traced {
		close(sampleStop)
		sampled.Wait()
	}
	runtime.ReadMemStats(&m1)
	if err != nil {
		db.Crash()
		return nil, err
	}
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.logBytes = deviceBytes(db) - bytes0
	if traced {
		for _, s := range db.SyncStats() {
			r.layer.syncEWMA += s.EWMA / time.Duration(len(db.SyncStats()))
			r.layer.syncs += int64(s.Syncs)
		}
		sh := fe.ShedStats()
		r.layer.shed = sh.Admission + sh.Queue + sh.Brownout
	}
	if err := bounded(stop, "shutdown", func() error { shutdown(); return nil }); err != nil {
		return nil, err
	}
	var lat []float64
	for i := range r.recs {
		r.outcomes[r.recs[i].out]++
		if r.recs[i].out == committed {
			lat = append(lat, ms(r.recs[i].latency()))
		}
	}
	r.attempted = len(r.recs)
	r.p50, r.p99 = quantile(lat, 0.50), quantile(lat, 0.99)
	if traced {
		r.layer.mvcc = db.MVCCStats()
	}
	runtime.GC()
	var mh runtime.MemStats
	runtime.ReadMemStats(&mh)
	r.heapMB = float64(mh.HeapAlloc) / 1e6

	want := digest(db, bp)
	db.Crash()
	serialRef := traced && w.logging == pacman.CommandLogging
	if err := r.recover(db.Devices(), bp, want, serialRef, stop); err != nil {
		return nil, err
	}
	r.steal = stealShare(cpu0, readCPU())
	return r, nil
}

// recover restarts the crashed instance on devs with AutoScheme, times it,
// and checks the recovered state against want. A traced round also reads
// the phase breakdown; with serialRef it times a second restart pinned to
// serial CLR, the paper's reference.
func (r *round) recover(devs []*pacman.Device, bp pacman.Blueprint, want stateDigest, serialRef bool, stop <-chan struct{}) error {
	cfg := pacman.RecoverConfig{Threads: recoveryThreads}
	if r.traced {
		r.layer.breakdown = pacman.NewBreakdown()
		cfg.Breakdown = r.layer.breakdown
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	db, res, err := restart(devs, bp, cfg, stop)
	r.restart = time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	r.res = res
	r.restartMallocs = m1.Mallocs - m0.Mallocs
	if r.traced {
		r.layer.restartAt, r.layer.restartEnd = start.UnixNano(), start.Add(r.restart).UnixNano()
	}
	if err := checkState(db, bp, want); err != nil {
		db.Crash()
		return err
	}
	if !serialRef {
		db.Close()
		return nil
	}
	db.Crash()
	start = time.Now()
	db, _, err = restart(devs, bp, pacman.RecoverConfig{Scheme: pacman.CLR, Threads: recoveryThreads}, stop)
	r.layer.serialCLR = time.Since(start)
	if err != nil {
		return fmt.Errorf("serial CLR: %w", err)
	}
	defer db.Close()
	if err := checkState(db, bp, want); err != nil {
		return fmt.Errorf("serial CLR: %w", err)
	}
	return nil
}

// restart is pacman.Restart bounded by stop. A restart cut short is left
// running: the run then fails and the process exits.
func restart(devs []*pacman.Device, bp pacman.Blueprint, cfg pacman.RecoverConfig, stop <-chan struct{}) (*pacman.DB, *pacman.RecoveryResult, error) {
	type out struct {
		db  *pacman.DB
		res *pacman.RecoveryResult
		err error
	}
	ch := make(chan out, 1)
	go func() {
		db, res, err := pacman.Restart(devs, bp, cfg)
		ch <- out{db, res, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			return nil, nil, fmt.Errorf("restart: %w", o.err)
		}
		return o.db, o.res, nil
	case <-stop:
		return nil, nil, fmt.Errorf("restart: %w", errHung)
	}
}

// bounded runs f on its own goroutine and waits for it until stop. An f
// cut short is left running: the run then fails and the process exits.
func bounded(stop <-chan struct{}, what string, f func() error) error {
	ch := make(chan error, 1)
	go func() { ch <- f() }()
	select {
	case err := <-ch:
		return err
	case <-stop:
		return fmt.Errorf("%s: %w", what, errHung)
	}
}

// deviceBytes sums the bytes written to db's devices.
func deviceBytes(db *pacman.DB) int64 {
	var n int64
	for _, d := range db.Devices() {
		n += d.Stats().BytesWritten
	}
	return n
}

// classify maps a resolved call's error to its outcome, keeping the error
// of a failure for the report.
func classify(c *call, err error) (outcome, error) {
	switch {
	case err == nil:
		return committed, nil
	case c.mayAbort && errors.Is(err, proc.ErrAborted):
		return rolledBack, nil
	default:
		return failed, fmt.Errorf("%s: %w", c.proc, err)
	}
}

// closedLoop drives calls from `clients` goroutines, client g taking every
// clients-th call. Each keeps at most `window` futures in flight and, when
// full, waits for its oldest.
func closedLoop(fe *pacman.Frontend, calls []call, window int, r *round, stop <-chan struct{}) error {
	futs := make([]*pacman.Future, len(calls))
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var inflight []int
			settle := func(i int) bool {
				select {
				case <-futs[i].Done():
				case <-stop:
					errs[g] = fmt.Errorf("request %d (%s): %w", i, calls[i].proc, errHung)
					return false
				}
				rc := &r.recs[i]
				_, err := futs[i].Wait()
				rc.out, rc.err = classify(&calls[i], err)
				rc.start = futs[i].Start().UnixNano()
				if at := futs[i].ExecAt(); !at.IsZero() {
					rc.execAt = at.UnixNano()
				}
				rc.durableAt = futs[i].DurableAt().UnixNano()
				return true
			}
			for i := g; i < len(calls); i += clients {
				if len(inflight) == window {
					if !settle(inflight[0]) {
						return
					}
					inflight = inflight[1:]
				}
				rc := &r.recs[i]
				rc.call = now()
				futs[i] = fe.Submit(calls[i].proc, calls[i].args)
				rc.ret = now()
				inflight = append(inflight, i)
			}
			for _, i := range inflight {
				if !settle(i) {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// wireLoad serves db through an in-process wire server on loopback TCP and
// returns the open loop over one client connection. A traced round
// installs a timing Backend wrapper; an untraced one uses Server.Attach.
func wireLoad(db *pacman.DB, calls []call, rate int, r *round, stop <-chan struct{}) (drive func() error, shutdown func(), fe *pacman.Frontend, err error) {
	srv := wire.NewServer(wire.ServerConfig{Workers: frontendWorkers, Queue: wireQueue, Window: wireWindow})
	var tb *tracedBackend
	if r.traced {
		fe, err = db.NewFrontend(pacman.FrontendConfig{Workers: frontendWorkers, Queue: wireQueue})
		if err != nil {
			return nil, nil, nil, err
		}
		tb = &tracedBackend{fe: fe, procs: db.Procedures()}
		srv.AttachBackend(tb)
	} else if err = srv.Attach(db); err != nil {
		return nil, nil, nil, err
	}
	addr, err := srv.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, nil, nil, err
	}
	cl, err := client.Dial("tcp", addr.String(), client.Config{Window: wireWindow})
	if err != nil {
		srv.Close()
		return nil, nil, nil, err
	}
	shutdown = func() {
		st := cl.Stats()
		cl.Close()
		srv.Close()
		if tb != nil {
			r.layer.backpress = st.Retries + st.Shed
			tb.mu.Lock()
			r.layer.srv = tb.subs
			tb.mu.Unlock()
		}
	}
	drive = func() error { return openLoop(cl, calls, rate, r, stop) }
	return drive, shutdown, fe, nil
}

// watchers is the open loop's pool of goroutines that stamp when each
// request's future resolves. It sits far above rate × latency, so a
// request is picked up by an idle watcher as soon as it is sent.
const watchers = 256

// openLoop sends calls on a fixed schedule of rate per second from one
// generator goroutine, whatever the system's progress: call i is due at
// start + i/rate, and its latency counts from when it was due. The
// generator hands each sent request to the watcher pool, in send order.
func openLoop(cl *client.Client, calls []call, rate int, r *round, stop <-chan struct{}) error {
	futs := make([]*client.Future, len(calls))
	sent := make(chan int, len(calls))
	var watched sync.WaitGroup
	for range watchers {
		watched.Add(1)
		go func() {
			defer watched.Done()
			for i := range sent {
				select {
				case <-futs[i].Done():
					r.recs[i].done = now()
				case <-stop:
					return
				}
			}
		}()
	}
	interval := time.Second / time.Duration(rate)
	gen := func() error {
		start := time.Now().Add(time.Millisecond)
		for i := range calls {
			due := start.Add(time.Duration(i) * interval)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			rc := &r.recs[i]
			rc.due = due.UnixNano()
			rc.call = now()
			futs[i] = cl.Submit(calls[i].proc, calls[i].args)
			rc.ret = now()
			sent <- i
		}
		close(sent)
		watched.Wait()
		return nil
	}
	if err := bounded(stop, "open loop", gen); err != nil {
		return err
	}
	for i := range calls {
		select {
		case <-futs[i].Done():
		default:
			return fmt.Errorf("request %d (%s): %w", i, calls[i].proc, errHung)
		}
		_, err := futs[i].Wait()
		r.recs[i].out, r.recs[i].err = classify(&calls[i], err)
	}
	return nil
}

// srvSub is one request as the wire server's backend admitted it.
type srvSub struct {
	proc       string
	args       pacman.Args
	admit, ret int64
	fut        *pacman.Future
}

// tracedBackend is the standard frontend backend with every admission
// timed: it records when the server handed a request to the frontend, when
// TrySubmit returned, and the Future that carries the rest. The benchmark
// sends plain submits only, so every mode maps to TrySubmitDeadline.
type tracedBackend struct {
	fe    *pacman.Frontend
	procs []string
	mu    sync.Mutex
	subs  []srvSub
}

func (b *tracedBackend) Procs() []string { return b.procs }

func (b *tracedBackend) TrySubmit(_ wire.SubmitMode, name string, args pacman.Args, deadline time.Time) (wire.Waiter, bool) {
	admit := now()
	fut, ok := b.fe.TrySubmitDeadline(name, args, deadline)
	ret := now()
	if fut == nil {
		return nil, ok
	}
	b.mu.Lock()
	b.subs = append(b.subs, srvSub{proc: name, args: args, admit: admit, ret: ret, fut: fut})
	b.mu.Unlock()
	return fut, ok
}

func (b *tracedBackend) QueueDepth() int { return b.fe.QueueDepth() }
func (b *tracedBackend) QueueCap() int   { return b.fe.QueueCap() }
func (b *tracedBackend) Brownout() bool  { return b.fe.Brownout() }
func (b *tracedBackend) Close()          { b.fe.Close() }

// sampleLayers samples queue fill and pepoch lag every millisecond until
// stop closes.
func sampleLayers(db *pacman.DB, fe *pacman.Frontend, l *layerSample, stop <-chan struct{}) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			l.queueFill = append(l.queueFill, ratio(float64(fe.QueueDepth()), float64(fe.QueueCap())))
			l.pepochLag = append(l.pepochLag, float64(db.Epoch())-float64(db.PersistedEpoch()))
		}
	}
}
