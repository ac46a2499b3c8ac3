package wal

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pacman/internal/health"
	"pacman/internal/simdisk"
	"pacman/internal/txn"
)

// ErrCrashed resolves durable-commit futures whose transaction executed but
// whose epoch was never covered by the persistent epoch when the instance
// crashed: recovery will not replay it, so it must not report durable.
var ErrCrashed = errors.New("wal: crashed before durable")

// ErrClosed resolves futures still unreleased when the logging pipeline is
// closed (e.g. a worker was never retired, so its epoch never became safe).
var ErrClosed = errors.New("wal: closed before durable")

// DefaultBatchEpochs is the epochs-per-batch-file geometry used when none
// is configured — the paper "sets the batch size to 100 epochs" (Appendix
// A.1). The catalog manifest records the effective value through this same
// constant, so the geometry a restart rounds its resume epoch to can never
// drift from the geometry the loggers actually wrote with.
const DefaultBatchEpochs = 100

// Config tunes the logging subsystem.
type Config struct {
	Kind Kind
	// BatchEpochs is the number of epochs per log batch file (default
	// DefaultBatchEpochs).
	BatchEpochs uint32
	// FlushInterval is the logger poll period.
	FlushInterval time.Duration
	// Sync issues an fsync per flush (group commit). Disabling it models
	// the Table 3 "w/o fsync" configuration.
	Sync bool
	// ResumeEpoch is the restart floor: the epoch up to which the devices
	// are already durable from a previous incarnation (recovery's resume
	// point minus one). The persistent epoch and per-logger persisted
	// counters start here instead of 0, so PersistedEpoch never regresses
	// below what recovery reported and post-restart group commit releases
	// only on epochs this incarnation actually flushed.
	ResumeEpoch uint32
	// OnRelease, if set, is called with transactions whose results become
	// releasable: their epoch is covered by the persistent epoch. It is a
	// test seam: tests observe every release through it to prove each
	// commit is released exactly once, which futures cannot show because
	// the first Resolve wins. The observer owns the slice and the records
	// it receives (they are never recycled into the commit-record pool
	// while an observer is configured), so it may retain both past the
	// call.
	OnRelease func([]*txn.Committed)
	// OnPepochAdvance, if set, is called from the pepoch thread each time
	// the persistent epoch advances, with the new value. The multi-version
	// garbage collector keys off it: versions strictly older than the
	// persistent-epoch frontier can never again be needed by recovery or by
	// snapshot views pinned at released epochs. The callback runs on the
	// pepoch goroutine and must not block.
	OnPepochAdvance func(pe uint32)
	// ReleaseShards is the number of release shards the flushed-but-
	// unreleased sets are partitioned over (by committing worker ID). Each
	// pepoch pass drains the shards in parallel, so resolving futures and
	// recycling records no longer funnels through the pepoch goroutine
	// alone. Default max(2, GOMAXPROCS), capped at 8.
	ReleaseShards int
	// EncodeStripes is the size of the shared encode pool loggers stripe
	// large batch encodes across (a flush splits its sorted batch range
	// into contiguous stripes encoded concurrently, then written in order —
	// byte-identical to the serial encode). Values <= 1 disable striping;
	// small flushes always encode inline. Default GOMAXPROCS, capped at 8.
	EncodeStripes int
}

// DefaultConfig returns the standard logging configuration for the given
// scheme.
func DefaultConfig(kind Kind) Config {
	return Config{Kind: kind, BatchEpochs: 100, FlushInterval: time.Millisecond, Sync: true}
}

// BatchFileName names the batch file of a logger.
func BatchFileName(loggerID int, batch uint32) string {
	return fmt.Sprintf("log-%03d-%08d", loggerID, batch)
}

// PepochFileName is the persistent-epoch marker file.
const PepochFileName = "pepoch.log"

// LogSet is the logging subsystem: one logger goroutine per device, plus
// the pepoch thread tracking the slowest logger (Appendix A.1).
type LogSet struct {
	mgr     *txn.Manager
	cfg     Config
	loggers []*Logger

	pepoch    atomic.Uint32
	pepochDev *simdisk.Device
	// peAppends counts marker records appended since the last compaction;
	// every pepochCompactEvery appends the marker is rewritten to a single
	// record (crash-safe sidecar + rename), bounding both the file and the
	// scan recovery pays on it.
	peAppends int

	// peMu/peCond wake WaitForEpoch callers when the persistent epoch
	// advances — broadcast from updatePepoch while logging is active, and
	// from the manager's epoch-movement callback when it is not (an
	// inactive set's PersistedEpoch shadows the safe epoch) — replacing the
	// former 100µs busy-poll loops in both modes.
	peMu   sync.Mutex
	peCond *sync.Cond

	// Release sharding: flushed-but-unreleased records are partitioned by
	// committing worker ID over relShards; each pepoch pass publishes
	// (relPE, relNow) and fans the drain out to the shard goroutines,
	// waiting for all of them (one pass = one release timestamp). After
	// shutdown stops the shard goroutines (relStop), relInline routes the
	// pass through the caller's goroutine instead. obsMu serializes the
	// OnRelease observer across shards — the callback contract predates
	// sharding and observers do not expect concurrent calls.
	relShards   []*relShard
	relStop     chan struct{}
	relStopOnce sync.Once
	relWGrp     sync.WaitGroup
	relPassWG   sync.WaitGroup
	relPE       uint32
	relNow      time.Time
	// relParallel is true only while the shard goroutines run (between
	// Start and shutdown's stopReleaseWorkers): outside that window —
	// including updatePepoch calls on sets never started, as some tests
	// do — the pass drains inline on the caller. Written before the pepoch
	// goroutine is spawned and after it is joined, so reads from the pass
	// owner are ordered without atomics.
	relParallel bool
	obsMu       sync.Mutex

	// Encode striping: a shared pool of encode workers loggers submit
	// contiguous batch stripes to (see Config.EncodeStripes). nil when
	// striping is disabled or Start was never called; closed by shutdown
	// after the final flush.
	encCh       chan encJob
	encStopOnce sync.Once

	stopCh  chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup
}

// relShard is one release shard: the flushed-but-unreleased records of the
// workers whose ID hashes to it, in per-worker commit order.
type relShard struct {
	mu      sync.Mutex
	pending []*txn.Committed
	// relBuf is take's reused output buffer. Drains of one shard are
	// serialized (its own goroutine while running, the shutdown path's
	// inline passes after), and each drain finishes with the returned slice
	// before the next, so one buffer suffices.
	relBuf []*txn.Committed
	signal chan struct{}
}

// take removes and returns pending records with epoch <= pe, compacting the
// kept records in place (vacated slots cleared so released records are not
// pinned).
func (sh *relShard) take(pe uint32) []*txn.Committed {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := sh.relBuf[:0]
	kept := sh.pending[:0]
	for _, c := range sh.pending {
		if c.Epoch <= pe {
			out = append(out, c)
		} else {
			kept = append(kept, c)
		}
	}
	clear(sh.pending[len(kept):])
	sh.pending = kept
	sh.relBuf = out
	return out
}

// encJob asks the encode pool to frame recs into *out (reset to length 0
// first); wg.Done signals completion. The out buffer is owned by the
// submitting logger and reused across flushes.
type encJob struct {
	kind Kind
	recs []*txn.Committed
	out  *[]byte
	wg   *sync.WaitGroup
}

// Logger is one logging thread bound to one device, draining a subset of
// workers.
type Logger struct {
	id  int
	set *LogSet
	dev *simdisk.Device

	workers []*txn.Worker
	wmu     sync.Mutex

	persisted atomic.Uint32

	// dead latches after a failed flush sync (the device power-failed):
	// records the logger buffered after that point were never durable, so
	// persisted must never advance again — an empty later flush jumping
	// persisted past unsynced records would release them as durable and
	// recovery would not replay them.
	dead bool

	// batch state
	curBatch  uint32
	curWriter *simdisk.Writer

	// recs and encBuf are flush scratch, reused across flushes (flush runs
	// on the single logger goroutine): drained commit records and the
	// encode buffer one flush's records are framed into.
	recs   []*txn.Committed
	encBuf []byte

	// Sync-latency telemetry for the gray-failure watchdog: syncStart is
	// the unix-nano start of the sync currently blocking the logger
	// goroutine (0 when none), so a hung device shows up as an ever-growing
	// in-flight age even though the sync never returns to be measured.
	syncStart atomic.Int64
	syncEWMA  health.EWMA
	lastSync  atomic.Int64
	// lastSyncAt is the unix-nano completion time of the most recent sync:
	// the EWMA is evidence of slowness only while a sample is fresh (see
	// ewmaEvidenceWindow).
	lastSyncAt atomic.Int64
	syncs      atomic.Uint64

	// stripeBufs are the per-stripe encode buffers a striped flush frames
	// into (reused across flushes); encWG is the reused completion group
	// for one flush's stripe jobs; widBuf is shardPut's reused
	// shard-index cache.
	stripeBufs [][]byte
	encWG      sync.WaitGroup
	widBuf     []int
}

// NewLogSet builds a logging subsystem with one logger per device. With
// Kind == Off it is inert (no goroutines, PersistedEpoch tracks SafeEpoch).
func NewLogSet(mgr *txn.Manager, cfg Config, devices []*simdisk.Device) *LogSet {
	if cfg.BatchEpochs == 0 {
		cfg.BatchEpochs = DefaultBatchEpochs
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = time.Millisecond
	}
	if cfg.ReleaseShards <= 0 {
		cfg.ReleaseShards = max(2, min(8, runtime.GOMAXPROCS(0)))
	}
	if cfg.EncodeStripes == 0 {
		cfg.EncodeStripes = min(8, runtime.GOMAXPROCS(0))
	}
	s := &LogSet{mgr: mgr, cfg: cfg, stopCh: make(chan struct{})}
	s.peCond = sync.NewCond(&s.peMu)
	if cfg.Kind == Off || len(devices) == 0 {
		// Inactive: PersistedEpoch shadows the safe epoch, which advances
		// with the epoch clock and worker marks — not through updatePepoch.
		// Route those movements into the same condition variable so
		// WaitForEpoch parks instead of busy-polling (the former Off-mode
		// caveat).
		mgr.SetOnAdvance(func() {
			s.peMu.Lock()
			s.peCond.Broadcast()
			s.peMu.Unlock()
		})
		return s
	}
	s.pepoch.Store(cfg.ResumeEpoch)
	s.pepochDev = devices[0]
	for i, d := range devices {
		lg := &Logger{id: i, set: s, dev: d}
		lg.persisted.Store(cfg.ResumeEpoch)
		s.loggers = append(s.loggers, lg)
	}
	s.relStop = make(chan struct{})
	for i := 0; i < cfg.ReleaseShards; i++ {
		s.relShards = append(s.relShards, &relShard{signal: make(chan struct{})})
	}
	return s
}

// Active reports whether the log set actually logs (Kind != Off and at
// least one device).
func (s *LogSet) Active() bool { return len(s.loggers) > 0 }

// AttachWorker assigns a worker to a logger (round-robin) and defers the
// worker's durability to the release path, so futures of its commits
// resolve at group commit instead of at execution. Workers may be attached
// before or after Start, but always before they execute their first
// transaction. With logging off this is a no-op: durability is immediate.
func (s *LogSet) AttachWorker(w *txn.Worker) {
	if len(s.loggers) == 0 {
		return
	}
	w.SetDurabilityDeferred(true)
	lg := s.loggers[w.ID()%len(s.loggers)]
	lg.wmu.Lock()
	lg.workers = append(lg.workers, w)
	lg.wmu.Unlock()
}

// Start launches the logger and pepoch goroutines.
func (s *LogSet) Start() {
	for _, lg := range s.loggers {
		s.wg.Add(1)
		go func(lg *Logger) {
			defer s.wg.Done()
			t := time.NewTicker(s.cfg.FlushInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					lg.flush(s.mgr.SafeEpoch())
				case <-s.stopCh:
					return
				}
			}
		}(lg)
	}
	if len(s.loggers) > 0 {
		// Release-shard drains, launched before the pepoch goroutine so
		// every fanned-out pass has receivers. Lifecycle: shards only exit
		// via relStop, which shutdown closes strictly after the pepoch
		// goroutine has stopped (s.wg.Wait) — so a pass can never be
		// stranded mid-fanout with no receiver.
		for _, sh := range s.relShards {
			s.relWGrp.Add(1)
			go func(sh *relShard) {
				defer s.relWGrp.Done()
				for {
					select {
					case <-sh.signal:
						s.drainShard(sh)
						s.relPassWG.Done()
					case <-s.relStop:
						return
					}
				}
			}(sh)
		}
		s.relParallel = true
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			t := time.NewTicker(s.cfg.FlushInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					s.updatePepoch()
				case <-s.stopCh:
					return
				}
			}
		}()
		// The shared encode pool (striped batch encoding). Closed by
		// shutdown after the final flush; encode workers never block on
		// anything but the job channel, so loggers' blocking submits always
		// drain.
		if s.cfg.EncodeStripes > 1 {
			s.encCh = make(chan encJob, 2*s.cfg.EncodeStripes)
			for i := 0; i < s.cfg.EncodeStripes; i++ {
				go func() {
					for j := range s.encCh {
						*j.out = encodeRecords((*j.out)[:0], j.kind, j.recs)
						j.wg.Done()
					}
				}()
			}
		}
	}
}

// stopReleaseWorkers stops the shard goroutines and flips the release path
// to inline (shutdown's final passes run on the caller). Must only be
// called after the pepoch goroutine has stopped.
func (s *LogSet) stopReleaseWorkers() {
	if s.relStop == nil {
		return
	}
	s.relStopOnce.Do(func() { close(s.relStop) })
	s.relWGrp.Wait()
	s.relParallel = false
}

// stopEncodeWorkers shuts the encode pool down. Must only be called once no
// further flush can run.
func (s *LogSet) stopEncodeWorkers() {
	s.encStopOnce.Do(func() {
		if s.encCh != nil {
			close(s.encCh)
		}
	})
}

// Close flushes everything outstanding (workers should be retired first so
// the safe epoch covers all buffered commits) and stops the goroutines.
func (s *LogSet) Close() {
	if s.stopped.CompareAndSwap(false, true) {
		close(s.stopCh)
	}
	s.wg.Wait()
	// With the pepoch goroutine stopped, no pass is in flight: stop the
	// shard goroutines and run the final flush + release pass inline.
	s.stopReleaseWorkers()
	safe := s.mgr.SafeEpoch()
	for _, lg := range s.loggers {
		lg.flush(safe)
		lg.closeBatch()
	}
	s.updatePepoch()
	// Anything still unreleased (commits of never-retired workers whose
	// epoch never became safe) will not be flushed by anyone: fail their
	// futures so no caller waits forever.
	s.failOutstanding(ErrClosed)
	s.stopEncodeWorkers()
}

// Abort stops the logger and pepoch goroutines without any final flush —
// the logging pipeline's half of a simulated power failure. Crash tests
// call Abort, then Device.Crash, so nothing writes "after" the failure.
func (s *LogSet) Abort() {
	if s.stopped.CompareAndSwap(false, true) {
		close(s.stopCh)
	}
	s.wg.Wait()
	s.stopReleaseWorkers()
	// Every commit the pipeline still owned dies with it: resolve its
	// future with ErrCrashed so clients observe the lost tail instead of
	// waiting forever, and fail each worker's durability so transactions
	// executed after the crash resolve immediately too.
	s.failOutstanding(ErrCrashed)
	s.stopEncodeWorkers()
}

// failOutstanding resolves every future still owned by the logging
// pipeline — buffered on an attached worker, or flushed but not yet covered
// by the persistent epoch — with err. It runs after the logger goroutines
// have stopped, so no concurrent release can race it; a future that was
// already released is left untouched (resolve-once).
func (s *LogSet) failOutstanding(err error) {
	now := time.Now()
	for _, lg := range s.loggers {
		lg.wmu.Lock()
		workers := append([]*txn.Worker(nil), lg.workers...)
		lg.wmu.Unlock()
		for _, w := range workers {
			w.FailDurability(err)
		}
	}
	for _, sh := range s.relShards {
		failed := sh.take(^uint32(0))
		for _, c := range failed {
			if c.Future != nil {
				c.Future.Resolve(now, err)
			}
		}
		if s.cfg.OnRelease == nil {
			txn.RecycleCommitted(failed)
		}
	}
}

// PersistedEpoch returns the current persistent epoch (pepoch): every
// transaction with a commit epoch at or below it is durable on all loggers.
func (s *LogSet) PersistedEpoch() uint32 {
	if len(s.loggers) == 0 {
		// Logging disabled: everything "persists" immediately.
		return s.mgr.SafeEpoch()
	}
	return s.pepoch.Load()
}

// WaitForEpoch blocks until the persistent epoch reaches e (tests and
// clean shutdown). Waiters park on a condition variable — signaled from
// updatePepoch while logging is active, and from the manager's
// epoch-movement callback when it is not (the inactive persistent epoch
// shadows the safe epoch) — so no mode busy-polls.
func (s *LogSet) WaitForEpoch(e uint32) {
	s.peMu.Lock()
	for s.PersistedEpoch() < e {
		s.peCond.Wait()
	}
	s.peMu.Unlock()
}

// updatePepoch recomputes the minimum persisted epoch, records it durably
// in pepoch.log when (and only when) it advanced, and releases covered
// transactions. The release scan runs every pass, advance or not: a flush
// can land records whose epochs an earlier pass already covered (the safe
// epoch reached them between flushes), and those must not sit pending until
// the next advance — or worse, be failed with ErrClosed by a shutdown that
// never saw pepoch move again.
func (s *LogSet) updatePepoch() {
	if len(s.loggers) == 0 {
		return
	}
	pe := s.loggers[0].persisted.Load()
	for _, lg := range s.loggers[1:] {
		if p := lg.persisted.Load(); p < pe {
			pe = p
		}
	}
	if pe > s.pepoch.Load() {
		// The marker is an append-only sequence of 8-byte (pe, ^pe) records;
		// readers take the last valid one, so a crash mid-append tears only
		// the new record and the previous durable pepoch survives. (A
		// create-truncate-rewrite here would have a window where a crash
		// destroys the marker entirely, un-acknowledging every durable
		// commit.) Every pepochCompactEvery appends the file is compacted
		// back to one record through the same crash-safe sidecar+rename
		// protocol tail repair uses, so it never grows without bound.
		if s.peAppends >= pepochCompactEvery {
			if err := writePepochMarker(s.pepochDev, pe); err != nil {
				return
			}
			s.peAppends = 0
		} else {
			w := s.pepochDev.Append(PepochFileName)
			var buf [8]byte
			binary.LittleEndian.PutUint32(buf[:4], pe)
			binary.LittleEndian.PutUint32(buf[4:], pe^0xFFFFFFFF) // trivial check word
			if _, err := w.Write(buf[:]); err != nil {
				return
			}
			if err := w.Sync(); err != nil {
				// The advance never became durable: recovery would read the
				// old pepoch, so releasing against the new one would
				// acknowledge commits recovery will not replay. Keep
				// releasing at the old durable cut.
				return
			}
			s.peAppends++
		}
		s.pepoch.Store(pe)
		// Wake WaitForEpoch parkers. The broadcast happens under peMu so a
		// waiter that just checked the old pepoch is already parked (or
		// holds the lock and will see the new value); the store above may
		// stay outside the lock.
		s.peMu.Lock()
		s.peCond.Broadcast()
		s.peMu.Unlock()
		if s.cfg.OnPepochAdvance != nil {
			s.cfg.OnPepochAdvance(pe)
		}
	}
	// Release covered transactions across the shards. The scan runs every
	// pass, advance or not (see the function comment).
	s.releasePass(pe)
}

// releasePass drains every release shard up to pe: one pass, one release
// timestamp. While the shard goroutines run, the pass fans out to them and
// waits (parallel drain, but the pepoch goroutine still owns the pass —
// the next marker append starts only after every future of this cut is
// resolved, preserving the old serial scan's epoch-ordered resolution).
// After shutdown stops the goroutines, the pass runs inline.
func (s *LogSet) releasePass(pe uint32) {
	if len(s.relShards) == 0 {
		return
	}
	s.relPE = pe
	s.relNow = time.Now()
	if !s.relParallel {
		for _, sh := range s.relShards {
			s.drainShard(sh)
		}
		return
	}
	s.relPassWG.Add(len(s.relShards))
	for _, sh := range s.relShards {
		sh.signal <- struct{}{}
	}
	s.relPassWG.Wait()
}

// drainShard resolves and hands off one shard's records covered by the
// current pass. Resolve each durable-commit future, then surface the same
// batch to the OnRelease observer (the legacy callback rides the
// future-release path — both see exactly the transactions whose epochs the
// pass's pepoch covers). Without an observer the records have no remaining
// owner and recycle into the commit-record pool; an observer takes
// ownership instead (it may retain them past the call).
func (s *LogSet) drainShard(sh *relShard) {
	released := sh.take(s.relPE)
	if len(released) == 0 {
		return
	}
	now := s.relNow
	for _, c := range released {
		if c.Future != nil {
			c.Future.Resolve(now, nil)
		}
	}
	if s.cfg.OnRelease != nil {
		// The observer owns what it receives and may retain it, so it gets
		// its own slice — the shard's release buffer is rewritten on the
		// next pass. Only this observer-configured (legacy, non-hot) path
		// pays the copy; obsMu keeps the pre-sharding one-caller-at-a-time
		// contract.
		s.obsMu.Lock()
		s.cfg.OnRelease(append([]*txn.Committed(nil), released...))
		s.obsMu.Unlock()
	} else {
		txn.RecycleCommitted(released)
	}
}

// shardPut distributes freshly persisted records to their release shards
// (by committing worker ID, so one worker's records stay on one shard in
// commit order). Runs on the logger goroutine after a successful sync.
// Shard indices are cached up front (widBuf): a record handed to a shard
// is owned by the release path immediately — it can be resolved and
// recycled while later iterations still run — so no field of it may be
// read after its append.
func (lg *Logger) shardPut(recs []*txn.Committed) {
	shards := lg.set.relShards
	n := len(shards)
	if n == 1 {
		sh := shards[0]
		sh.mu.Lock()
		sh.pending = append(sh.pending, recs...)
		sh.mu.Unlock()
		return
	}
	wid := lg.widBuf[:0]
	for _, c := range recs {
		wid = append(wid, c.WID%n)
	}
	lg.widBuf = wid
	for i, sh := range shards {
		locked := false
		for k, c := range recs {
			if wid[k] != i {
				continue
			}
			if !locked {
				sh.mu.Lock()
				locked = true
			}
			sh.pending = append(sh.pending, c)
		}
		if locked {
			sh.mu.Unlock()
		}
	}
}

// SyncStats reports one logger device's sync-latency telemetry.
type SyncStats struct {
	Device string        `json:"device"`
	EWMA   time.Duration `json:"ewma"`
	Last   time.Duration `json:"last"`
	// Inflight is how long the currently blocked sync has been running
	// (zero when no sync is in flight) — the signal that exposes a hung
	// device whose sync never returns.
	Inflight time.Duration `json:"inflight,omitempty"`
	Syncs    uint64        `json:"syncs"`
}

// SyncStats returns per-device sync telemetry, in logger order (empty with
// logging off).
func (s *LogSet) SyncStats() []SyncStats {
	now := time.Now()
	out := make([]SyncStats, 0, len(s.loggers))
	for _, lg := range s.loggers {
		st := SyncStats{
			Device: lg.dev.Name(),
			EWMA:   lg.syncEWMA.Load(),
			Last:   time.Duration(lg.lastSync.Load()),
			Syncs:  lg.syncs.Load(),
		}
		if at := lg.syncStart.Load(); at != 0 {
			st.Inflight = now.Sub(time.Unix(0, at))
		}
		out = append(out, st)
	}
	return out
}

// ewmaEvidenceWindow bounds how long a completed sync's latency remains
// evidence that the device is slow. An idle device produces no samples, so
// without an expiry a breached average would hold the sync signal above
// budget forever — and a brownout that sheds all traffic (hence stops
// producing syncs) could never heal. Past the window the EWMA term is
// ignored: no sync in flight and none completed recently means the device
// is idle, not slow, and an idle device delays no one. The in-flight term
// is unaffected — a hung sync stays visible for as long as it hangs.
const ewmaEvidenceWindow = 250 * time.Millisecond

// SyncProbe returns a watchdog signal: the worst, over all devices, of the
// smoothed sync latency (while fresh — see ewmaEvidenceWindow) and the age
// of any sync currently blocked. The in-flight term is what catches a
// permanently hung sync — a latency that never completes produces no
// sample, but its age grows every sweep.
func (s *LogSet) SyncProbe() func(now time.Time) time.Duration {
	return func(now time.Time) time.Duration {
		var worst time.Duration
		for _, lg := range s.loggers {
			if at := lg.lastSyncAt.Load(); at != 0 && now.Sub(time.Unix(0, at)) <= ewmaEvidenceWindow {
				if v := lg.syncEWMA.Load(); v > worst {
					worst = v
				}
			}
			if at := lg.syncStart.Load(); at != 0 {
				if v := now.Sub(time.Unix(0, at)); v > worst {
					worst = v
				}
			}
		}
		return worst
	}
}

// pepochCompactEvery bounds the append-only marker: after this many
// appended records the marker is rewritten to a single record (4 KiB of
// appends between compactions), so neither the file nor recovery's scan of
// it grows with uptime.
const pepochCompactEvery = 512

// scanPepochRecords walks the marker's 8-byte (pe, ^pe) records and
// returns the byte length of the valid prefix and the last valid record's
// epoch. It is the single definition of the marker format, shared by
// ReadPepoch and tail repair — a second copy drifting is exactly how
// misalignment bugs are born.
func scanPepochRecords(b []byte) (valid int, pe uint32) {
	for valid+8 <= len(b) {
		v := binary.LittleEndian.Uint32(b[valid:])
		if binary.LittleEndian.Uint32(b[valid+4:])^0xFFFFFFFF != v {
			break // torn/corrupt record: everything before it is valid
		}
		pe = v
		valid += 8
	}
	return valid, pe
}

// writePepochMarker rewrites the marker as a single record holding pe,
// staged in a sidecar, synced, and atomically renamed — the crash-safe
// compaction path. The sidecar uses the repair prefix so a crashed
// compaction's leftovers are swept by the next RepairTail pass.
func writePepochMarker(dev *simdisk.Device, pe uint32) error {
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[:4], pe)
	binary.LittleEndian.PutUint32(buf[4:], pe^0xFFFFFFFF)
	side := repairSidecarPrefix + PepochFileName
	w := dev.Create(side)
	if _, err := w.Write(buf[:]); err != nil {
		return err
	}
	if err := w.Sync(); err != nil {
		return err
	}
	return dev.Rename(side, PepochFileName)
}

// ReadPepoch recovers the persistent epoch marker from a device: the last
// valid record of the append-only marker file. A torn or corrupt tail —
// a crash mid-append — falls back to the previous record; an existing but
// empty file (created, never synced) reads as 0, matching a crash before
// the first durable advance.
func ReadPepoch(dev *simdisk.Device) (uint32, error) {
	r, err := dev.Open(PepochFileName)
	if err != nil {
		return 0, err
	}
	b, err := r.ReadAll()
	if err != nil {
		return 0, err
	}
	_, pe := scanPepochRecords(b)
	return pe, nil
}

// flush drains the logger's workers up to safeEpoch, appends the records to
// the right batch files (in epoch order), and syncs once. The whole pass is
// allocation-free in steady state: records drain into the logger's recycled
// scratch slice, batch grouping is a stable in-place sort (no per-flush
// map), and every record frames itself directly into one reused encode
// buffer.
func (lg *Logger) flush(safeEpoch uint32) {
	lg.wmu.Lock()
	workers := lg.workers
	lg.wmu.Unlock()

	recs := lg.recs[:0]
	for _, w := range workers {
		recs = w.DrainInto(recs, safeEpoch)
	}
	lg.recs = recs
	if len(recs) == 0 {
		// Even with nothing to write, the epoch may have advanced — but
		// never past a failed sync: a dead logger's durability is frozen.
		if !lg.dead && safeEpoch > lg.persisted.Load() {
			lg.persisted.Store(safeEpoch)
		}
		return
	}
	// Group records by batch: a stable sort on batch id keeps the former
	// map-of-slices' drain order within each batch, and a flush almost
	// always lands in a single batch, making this one comparison pass.
	batchEpochs := lg.set.cfg.BatchEpochs
	slices.SortStableFunc(recs, func(a, b *txn.Committed) int {
		return cmp.Compare(a.Epoch/batchEpochs, b.Epoch/batchEpochs)
	})
	for lo := 0; lo < len(recs); {
		b := recs[lo].Epoch / batchEpochs
		hi := lo + 1
		for hi < len(recs) && recs[hi].Epoch/batchEpochs == b {
			hi++
		}
		w := lg.writerFor(b)
		if lg.set.encCh != nil && hi-lo >= 2*stripeMinRecs {
			lg.encodeStriped(w, recs[lo:hi])
		} else {
			buf := lg.encBuf[:0]
			for _, c := range recs[lo:hi] {
				buf = encodeRecord(buf, lg.set.cfg.Kind, c)
			}
			lg.encBuf = buf
			w.Write(buf)
		}
		lo = hi
	}
	if lg.set.cfg.Sync && lg.curWriter != nil {
		if err := lg.timedSync(lg.curWriter); err != nil {
			// Power failure (or injected fault): nothing this flush wrote
			// is durable, and the records must NOT reach pending — a
			// record flushed into an epoch the pepoch already covers would
			// be released (acknowledged durable) by the very next release
			// scan even though its bytes die with the crash. Fail the
			// futures as crashed right here; persisted stays put, now and
			// forever (see dead).
			lg.dead = true
			now := time.Now()
			for _, c := range recs {
				if c.Future != nil {
					c.Future.Resolve(now, ErrCrashed)
				}
			}
			if lg.set.cfg.OnRelease == nil {
				txn.RecycleCommitted(recs)
			}
			return
		}
	}
	if !lg.dead && safeEpoch > lg.persisted.Load() {
		lg.persisted.Store(safeEpoch)
	}

	lg.shardPut(recs)
}

// stripeMinRecs is the smallest stripe worth dispatching to the encode
// pool; a flush is striped only when it can fill at least two such
// stripes. Small flushes — the micro-benchmark and low-load regime — stay
// on the inline allocation-free path.
const stripeMinRecs = 256

// encodeStriped splits one batch's sorted record range into contiguous
// stripes, encodes them concurrently on the set's encode pool, and writes
// the stripe buffers in order — byte-identical to the serial encode, so
// batch-file contents do not depend on the stripe geometry.
func (lg *Logger) encodeStriped(w *simdisk.Writer, recs []*txn.Committed) {
	stripes := len(recs) / stripeMinRecs
	if mx := lg.set.cfg.EncodeStripes; stripes > mx {
		stripes = mx
	}
	for len(lg.stripeBufs) < stripes {
		lg.stripeBufs = append(lg.stripeBufs, nil)
	}
	per, rem := len(recs)/stripes, len(recs)%stripes
	lg.encWG.Add(stripes)
	start := 0
	for si := 0; si < stripes; si++ {
		cnt := per
		if si < rem {
			cnt++
		}
		lg.set.encCh <- encJob{
			kind: lg.set.cfg.Kind,
			recs: recs[start : start+cnt],
			out:  &lg.stripeBufs[si],
			wg:   &lg.encWG,
		}
		start += cnt
	}
	lg.encWG.Wait()
	for si := 0; si < stripes; si++ {
		w.Write(lg.stripeBufs[si])
	}
}

// encodeRecords frames recs into buf in order (the encode pool's unit of
// work).
func encodeRecords(buf []byte, kind Kind, recs []*txn.Committed) []byte {
	for _, c := range recs {
		buf = encodeRecord(buf, kind, c)
	}
	return buf
}

// writerFor returns the writer of the given batch, rotating files as the
// batch id advances.
func (lg *Logger) writerFor(batch uint32) *simdisk.Writer {
	if lg.curWriter != nil && lg.curBatch == batch {
		return lg.curWriter
	}
	lg.closeBatch()
	lg.curBatch = batch
	lg.curWriter = lg.dev.Create(BatchFileName(lg.id, batch))
	hdr := appendFileHeader(nil, lg.set.cfg.Kind, lg.id, batch)
	lg.curWriter.Write(hdr)
	return lg.curWriter
}

func (lg *Logger) closeBatch() {
	if lg.curWriter != nil && lg.set.cfg.Sync {
		lg.timedSync(lg.curWriter)
	}
	lg.curWriter = nil
}

// timedSync wraps a device sync with the latency telemetry the watchdog
// samples: the in-flight marker is set BEFORE the sync so a hung device is
// observable while the call is still blocked.
func (lg *Logger) timedSync(w *simdisk.Writer) error {
	start := time.Now()
	lg.syncStart.Store(start.UnixNano())
	err := w.Sync()
	d := time.Since(start)
	lg.syncStart.Store(0)
	lg.syncEWMA.Observe(d)
	lg.lastSync.Store(int64(d))
	lg.lastSyncAt.Store(time.Now().UnixNano())
	lg.syncs.Add(1)
	return err
}
