package main

import (
	"fmt"
	"math/rand"
	"time"

	"pacman"
	"pacman/internal/workload"
)

// Fixed set-up shared by every workload. The numbers are part of the
// benchmark's definition (README.md): changing one changes what every
// recorded figure means.
const (
	// clients is the load generator's goroutine (closed loop) or
	// connection (open loop) budget: at most nproc = 2.
	clients = 2
	// frontendWorkers is the worker pool every request is multiplexed
	// onto, in process and behind the wire server.
	frontendWorkers = 2
	// recoveryThreads is Restart's replay parallelism.
	recoveryThreads = 2
	// devices is the number of simulated log devices, with the zero-value
	// DeviceConfig: no modelled service time.
	devices = 2
	// epoch is the group-commit epoch; logs sync on every flush and use
	// the default batch geometry (Options.BatchEpochs = 0).
	epoch = 5 * time.Millisecond
	// wireWindow bounds in-flight requests on the open loop's connection,
	// client and server side, and wireQueue is the server frontend's
	// admission queue: both sit far above rate × latency, so a healthy
	// system never answers with backpressure.
	wireWindow = 4096
	wireQueue  = 1024
)

// call is one generated stored-procedure invocation: the only thing the
// program receives from the benchmark.
type call struct {
	proc string
	args pacman.Args
	// mayAbort marks a designed rollback (TPC-C's invalid item, Smallbank's
	// overdraft): an abort of such a call is counted apart, not as a
	// failure.
	mayAbort bool
}

// workloadDef is one benchmark workload: what to launch, how to log, and
// how to drive it.
type workloadDef struct {
	name    string
	logging pacman.LogKind
	// wire drives the open loop through the PAC1 client and an in-process
	// wire server; otherwise a closed loop submits to a Frontend directly.
	wire bool
	// txns is the number of calls one round drives.
	txns int
	// window is each closed-loop client's in-flight limit. Doubling it
	// leaves commit_tps within its bound (README.md, "Window and pacing"),
	// so the closed loop measures the system, not the window.
	window int
	// rate is the open loop's offered load in requests per second, well
	// below the loopback knee (README.md, "Window and pacing").
	rate int
	// build returns a fresh blueprint and the seeded calls of one round.
	build func(seed int64, txns int) (pacman.Blueprint, []call)
}

// workloads lists the benchmark's workloads; the names are cited by later
// changes and must not change. README.md gives the reasons for each.
var workloads = []workloadDef{
	// The paper's headline path: CLR-P replay loads sched (GDG scheduling,
	// parameter checking), district hot spots load txn validation. Not in
	// BENCHMARK.json while its correctness gate fails (README.md).
	{name: "tpcc-cl", logging: pacman.CommandLogging, txns: 12000, window: 256, build: tpcc},
	// The same calls and load under physical logging: recovery is wal
	// reload and install, sched stays idle.
	{name: "tpcc-pl", logging: pacman.PhysicalLogging, txns: 12000, window: 256, build: tpcc},
	// The only path through client and wire; durable latency is bound by
	// the group-commit cadence, replay by per-entry scheduling overhead.
	{name: "smallbank-cl-wire", logging: pacman.CommandLogging, wire: true, txns: 15000, rate: 5000, build: smallbank},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// tpcc is TPC-C at DefaultTPCCConfig (2 warehouses, standard mix with
// inserts). The generator is stateful (order-id and delivery frontiers),
// so every round's calls come from one seeded sequence.
func tpcc(seed int64, txns int) (pacman.Blueprint, []call) {
	w := workload.NewTPCC(workload.DefaultTPCCConfig())
	return generate(w, seed, txns)
}

// smallbank is Smallbank at 10k customers with the 25% hotspot.
func smallbank(seed int64, txns int) (pacman.Blueprint, []call) {
	w := workload.NewSmallbank(workload.DefaultSmallbankConfig())
	return generate(w, seed, txns)
}

func generate(w workload.Workload, seed int64, txns int) (pacman.Blueprint, []call) {
	spec := workload.Spec(w)
	bp := pacman.Blueprint{Tables: spec.Tables, Procedures: spec.Procs, Seed: spec.Seed}
	rng := rand.New(rand.NewSource(seed))
	calls := make([]call, txns)
	for i := range calls {
		tx := w.Generate(rng)
		calls[i] = call{proc: tx.Proc.Name(), args: tx.Args, mayAbort: tx.MayAbort}
	}
	return bp, calls
}
