package checkpoint

import (
	"sync"
	"sync/atomic"
	"time"

	"pacman/internal/engine"
	"pacman/internal/mvcc"
	"pacman/internal/simdisk"
	"pacman/internal/txn"
)

// Daemon periodically checkpoints a live database, the way the evaluation
// configures Peloton ("perform checkpointing every 200 seconds"). Intervals
// during which a checkpoint is running are observable through Running, which
// the throughput traces of Figure 11 shade gray.
type Daemon struct {
	mgr      *txn.Manager
	devices  []*simdisk.Device
	cfg      Config
	interval time.Duration
	// views, when set, supplies pinned snapshot views: each checkpoint
	// streams a consistent cut concurrently with live commits while the
	// view pin keeps the multi-version garbage collector from reclaiming
	// the history under it. Nil (single-version instances) falls back to
	// snapshotting at the raw snapshot epoch, which is only consistent
	// because version chains then hold exactly the latest committed data.
	views *mvcc.Manager

	nextID   atomic.Uint32
	running  atomic.Bool
	lastDone atomic.Uint32 // last completed checkpoint id

	stopCh  chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup

	mu   sync.Mutex
	last *Manifest
}

// NewDaemon builds a checkpoint daemon. views may be nil (see Daemon.views).
func NewDaemon(mgr *txn.Manager, views *mvcc.Manager, devices []*simdisk.Device, cfg Config, interval time.Duration) *Daemon {
	return &Daemon{mgr: mgr, views: views, devices: devices, cfg: cfg, interval: interval, stopCh: make(chan struct{})}
}

// Start launches the periodic checkpointing goroutine.
func (d *Daemon) Start() {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		t := time.NewTicker(d.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				d.RunOnce()
			case <-d.stopCh:
				return
			}
		}
	}()
}

// Stop halts the daemon (a checkpoint in progress completes first).
func (d *Daemon) Stop() {
	if d.stopped.CompareAndSwap(false, true) {
		close(d.stopCh)
	}
	d.wg.Wait()
}

// RunOnce takes one fuzzy checkpoint: it pins a snapshot view at the newest
// released epoch and streams that consistent cut to the devices while
// commits keep flowing — writers are never blocked or aborted, and the
// view pin (not a frozen write path) is what keeps the cut stable under
// them. Without a view manager it snapshots at the raw snapshot epoch.
func (d *Daemon) RunOnce() (*Manifest, error) {
	d.running.Store(true)
	defer d.running.Store(false)
	id := d.nextID.Add(1)
	var ts engine.TS
	if d.views != nil {
		v := d.views.AcquireFresh()
		defer v.Close()
		ts = v.TS()
	} else {
		ts = engine.MakeTS(d.mgr.SnapshotEpoch(), ^uint32(0))
	}
	m, err := Write(d.mgr.DB(), d.devices, d.cfg, id, ts)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.last = m
	d.mu.Unlock()
	d.lastDone.Store(id)
	return m, nil
}

// Running reports whether a checkpoint is currently being written.
func (d *Daemon) Running() bool { return d.running.Load() }

// Last returns the most recent completed manifest, or nil.
func (d *Daemon) Last() *Manifest {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.last
}
