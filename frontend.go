package pacman

import (
	"fmt"
	"time"

	"pacman/internal/frontend"
	"pacman/internal/txn"
)

// ErrFrontendClosed resolves Futures submitted to a closed Frontend. It is
// deliberately distinct from ErrClosed/ErrCrashed: a Future carrying
// ErrFrontendClosed was rejected at the queue and NEVER executed, while
// the other two mean the transaction executed but missed durability.
var ErrFrontendClosed = frontend.ErrClosed

// FrontendConfig tunes a Frontend.
type FrontendConfig struct {
	// Workers is the session-pool size client requests are multiplexed
	// onto (default 4).
	Workers int
	// Queue is the submission-queue capacity. A full queue blocks Submit
	// (backpressure) instead of buffering without bound (default
	// 4×Workers).
	Queue int
}

// Frontend is the multiplexing client surface: any number of concurrent
// goroutines submit stored-procedure invocations through a bounded queue
// onto a fixed session pool. Submit returns a durable-commit Future;
// Exec is the synchronous variant that waits for group-commit release.
// The Frontend heartbeats its idle sessions internally, and Close drains
// the queue before retiring the pool.
type Frontend struct {
	d  *DB
	fe *frontend.Frontend
}

// NewFrontend creates a frontend over the database. Instances returned by
// Launch and Restart are already started, so a Frontend works immediately —
// including right after a crash recovery, where new submissions commit with
// timestamps above the recovered high-water mark and append to the same log
// devices. It never fails; the error result keeps the signature stable.
func (d *DB) NewFrontend(cfg FrontendConfig) (*Frontend, error) {
	fe := frontend.New(d.mgr, d.logset, frontend.Config{
		Workers: cfg.Workers,
		Queue:   cfg.Queue,
	})
	// Join the health watchdog's brownout fan-out (a frontend created
	// mid-brownout starts shedding immediately).
	d.registerFrontend(fe)
	return &Frontend{d: d, fe: fe}, nil
}

// MustFrontend is NewFrontend that panics on error — the panicking twin,
// matching MustLaunch and the Must* constructor convention.
func (d *DB) MustFrontend(cfg FrontendConfig) *Frontend {
	fe, err := d.NewFrontend(cfg)
	if err != nil {
		panic(err)
	}
	return fe
}

// Submit queues one invocation and returns its durable-commit Future. It
// blocks only when the submission queue is full.
func (f *Frontend) Submit(name string, args Args) *Future {
	return f.submit(name, args, false, time.Time{})
}

// SubmitAdHoc is Submit for ad-hoc transactions (tuple-level logging even
// under command logging, Section 4.5).
func (f *Frontend) SubmitAdHoc(name string, args Args) *Future {
	return f.submit(name, args, true, time.Time{})
}

// SubmitDist is Submit for distributed transactions — the 2PC pieces a
// shard router drives a cross-shard commit through. Their effects are
// logged as values even under command logging, so this shard's replay
// never re-executes them (their inputs may have come from another shard).
func (f *Frontend) SubmitDist(name string, args Args) *Future {
	c := f.d.reg.ByName(name)
	if c == nil {
		return unknownProc(name)
	}
	return f.fe.SubmitDist(c, args)
}

// SubmitDeadline is Submit with a per-request deadline (zero means none).
// If the commit is not durably acknowledged by the deadline the Future
// resolves ErrDeadlineExceeded — at admission when the deadline has already
// passed, at execution start when it expired in the queue, or in the
// durability pipeline when group commit cannot release it in time. A
// durable ack that lands first always wins: an acknowledged Future is never
// retroactively failed. Like a connection loss, ErrDeadlineExceeded leaves
// execution state unknown — the transaction may still commit durably after
// the caller has given up.
func (f *Frontend) SubmitDeadline(name string, args Args, deadline time.Time) *Future {
	return f.submit(name, args, false, deadline)
}

// SubmitWithin is SubmitDeadline with a relative timeout.
func (f *Frontend) SubmitWithin(name string, args Args, timeout time.Duration) *Future {
	return f.submit(name, args, false, time.Now().Add(timeout))
}

func (f *Frontend) submit(name string, args Args, adHoc bool, deadline time.Time) *Future {
	c := f.d.reg.ByName(name)
	if c == nil {
		return unknownProc(name)
	}
	if f.d.valueLog[name] {
		// Adaptive logging policy: this procedure always logs values.
		return f.fe.SubmitDistDeadline(c, args, deadline)
	}
	if adHoc {
		return f.fe.SubmitAdHocDeadline(c, args, deadline)
	}
	return f.fe.SubmitDeadline(c, args, deadline)
}

func unknownProc(name string) *Future {
	fut := txn.NewFuture(time.Now())
	fut.Resolve(time.Now(), fmt.Errorf("pacman: unknown procedure %q", name))
	return fut
}

// TrySubmit is the non-blocking admission variant of Submit: it returns
// (future, true) only when the submission queue had space right now, and
// (nil, false) when the queue was full — the caller decides whether to
// retry, shed load, or surface backpressure (pacmand turns it into a
// backpressure frame). On a closed frontend it returns a future already
// resolved with ErrFrontendClosed, and ok is false.
func (f *Frontend) TrySubmit(name string, args Args) (*Future, bool) {
	return f.trySubmit(name, args, false, time.Time{})
}

// TrySubmitAdHoc is TrySubmit for ad-hoc transactions.
func (f *Frontend) TrySubmitAdHoc(name string, args Args) (*Future, bool) {
	return f.trySubmit(name, args, true, time.Time{})
}

// TrySubmitDist is TrySubmit for distributed transactions (2PC pieces; see
// SubmitDist). pacmand's wire server routes Prepare/Decide frames here.
func (f *Frontend) TrySubmitDist(name string, args Args) (*Future, bool) {
	return f.TrySubmitDistDeadline(name, args, time.Time{})
}

// TrySubmitDeadline is TrySubmit with a per-request deadline (see
// SubmitDeadline for the expiry contract).
func (f *Frontend) TrySubmitDeadline(name string, args Args, deadline time.Time) (*Future, bool) {
	return f.trySubmit(name, args, false, deadline)
}

// TrySubmitAdHocDeadline is TrySubmitAdHoc with a per-request deadline.
func (f *Frontend) TrySubmitAdHocDeadline(name string, args Args, deadline time.Time) (*Future, bool) {
	return f.trySubmit(name, args, true, deadline)
}

// TrySubmitDistDeadline is TrySubmitDist with a per-request deadline.
func (f *Frontend) TrySubmitDistDeadline(name string, args Args, deadline time.Time) (*Future, bool) {
	c := f.d.reg.ByName(name)
	if c == nil {
		fut := unknownProc(name)
		return fut, false
	}
	return f.fe.TrySubmitDistDeadline(c, args, deadline)
}

func (f *Frontend) trySubmit(name string, args Args, adHoc bool, deadline time.Time) (*Future, bool) {
	c := f.d.reg.ByName(name)
	if c == nil {
		fut := unknownProc(name)
		return fut, false
	}
	if f.d.valueLog[name] {
		return f.fe.TrySubmitDistDeadline(c, args, deadline)
	}
	return f.fe.TrySubmitDeadline(c, args, adHoc, deadline)
}

// Brownout reports whether this frontend is currently shedding new work
// under the health watchdog's brownout (new submissions resolve
// ErrBrownout; queued work still executes).
func (f *Frontend) Brownout() bool { return f.fe.Brownout() }

// ShedStats returns how many requests this frontend shed, split by
// checkpoint: deadline-expired at admission, deadline-expired at dequeue
// (never executed), and brownout rejections.
func (f *Frontend) ShedStats() ShedStats { return f.fe.ShedStats() }

// ShedStats is a Frontend's shed-counter snapshot.
type ShedStats = frontend.Shed

// QueueDepth returns the submission queue's current occupancy; paired with
// QueueCap it is the admission-control signal network backpressure keys
// off.
func (f *Frontend) QueueDepth() int { return f.fe.Depth() }

// QueueCap returns the submission queue's capacity.
func (f *Frontend) QueueCap() int { return f.fe.Capacity() }

// Exec submits and waits for durability: when it returns with a nil error,
// the transaction's epoch has been group-commit released.
func (f *Frontend) Exec(name string, args Args) (TS, error) {
	return f.Submit(name, args).Wait()
}

// ExecAdHoc is Exec for ad-hoc transactions.
func (f *Frontend) ExecAdHoc(name string, args Args) (TS, error) {
	return f.SubmitAdHoc(name, args).Wait()
}

// Sessions returns the pool size (the number of sessions client goroutines
// share).
func (f *Frontend) Sessions() int { return len(f.fe.Workers()) }

// Scan runs a consistent snapshot scan over table, calling fn in key order
// for every row with key in [lo, hi) that was visible at the cut, until fn
// returns false. The cut is the newest released epoch (returned), so every
// committed-and-released transaction at or below it is fully visible and
// nothing newer leaks in. The scan reads outside OCC entirely: it takes no
// latches, joins no validation, and can never abort a concurrent writer —
// run it as long as you like under full OLTP load (the pinned epoch merely
// holds version garbage collection back until the scan finishes).
func (f *Frontend) Scan(table string, lo, hi uint64, fn func(key uint64, row Tuple) bool) (epoch uint32, err error) {
	t := f.d.db.Table(table)
	if t == nil {
		return 0, fmt.Errorf("pacman: unknown table %q", table)
	}
	v, err := f.d.SnapshotView(0)
	if err != nil {
		return 0, err
	}
	defer v.Close()
	v.Scan(t, lo, hi, fn)
	return v.Epoch(), nil
}

// Close drains queued submissions, rejects late ones with
// ErrFrontendClosed, and retires the session pool. Futures of drained work
// resolve through the normal release path.
func (f *Frontend) Close() {
	f.d.dropFrontend(f.fe)
	f.fe.Close()
}
