package pacman

import (
	"errors"
	"sync"
	"testing"
	"time"

	"pacman/internal/simdisk"
	"pacman/internal/tuple"
)

func depositArgs(acct, amount int64) Args {
	return Args{A(tuple.I(acct)), A(tuple.I(amount)), A(tuple.I(1))}
}

// TestDBHealthSnapshot: a started instance with logging active registers
// the full gray-failure signal set and reports healthy; a disabled
// watchdog reports a bare healthy snapshot.
func TestDBHealthSnapshot(t *testing.T) {
	d := launchBank(t, Options{Logging: CommandLogging, EpochInterval: time.Millisecond})
	defer d.Close()

	snap := d.Health()
	if snap.State != "healthy" || d.Brownout() {
		t.Fatalf("fresh instance: %+v brownout=%v", snap, d.Brownout())
	}
	want := map[string]bool{"epoch-stall": false, "pepoch-stall": false, "sync-latency": false, "queue-stall": false}
	for _, s := range snap.Signals {
		if _, ok := want[s.Name]; !ok {
			t.Fatalf("unexpected signal %q", s.Name)
		}
		want[s.Name] = true
		if s.Budget <= 0 {
			t.Fatalf("signal %q has no budget: %+v", s.Name, s)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("signal %q not registered", name)
		}
	}

	d2 := launchBank(t, Options{Logging: CommandLogging, EpochInterval: time.Millisecond, Health: HealthConfig{Disable: true}})
	defer d2.Close()
	if snap := d2.Health(); snap.State != "healthy" || len(snap.Signals) != 0 {
		t.Fatalf("disabled watchdog snapshot: %+v", snap)
	}
}

// TestDBBrownoutEndToEnd drives the whole loop through the public API: a
// device turning sticky-slow trips the watchdog, frontends shed new work
// with ErrBrownout, the fault lifting clears the state, and admission
// resumes.
func TestDBBrownoutEndToEnd(t *testing.T) {
	var (
		trMu        sync.Mutex
		transitions []string
	)
	d := launchBank(t, Options{
		Logging:       CommandLogging,
		EpochInterval: time.Millisecond,
		Health: HealthConfig{
			Interval: 2 * time.Millisecond, TripAfter: 2, ClearAfter: 3,
			SyncLatencyBudget: 10 * time.Millisecond,
			// Loose liveness budgets: only sync latency should trip here.
			EpochStallBudget: time.Second, PepochStallBudget: 2 * time.Second, QueueStallBudget: 2 * time.Second,
			OnTransition: func(from, to, cause string) {
				trMu.Lock()
				transitions = append(transitions, from+"->"+to)
				trMu.Unlock()
			},
			Logf: t.Logf,
		},
	})
	defer d.Close()
	fe := d.MustFrontend(FrontendConfig{})
	defer fe.Close()

	if _, err := fe.Exec("Deposit", depositArgs(1, 1)); err != nil {
		t.Fatalf("healthy deposit: %v", err)
	}

	df := &simdisk.DeviceFaults{SyncDelay: 50 * time.Millisecond}
	plan := &simdisk.FaultPlan{Devs: map[string]*simdisk.DeviceFaults{}}
	for _, dev := range d.Devices() {
		plan.Devs[dev.Name()] = df
	}
	plan.Arm(d.Devices()...)
	defer plan.Disarm()

	// Trickle traffic so syncs keep happening; the watchdog must trip.
	waitHealth(t, "brownout", func() bool {
		fe.SubmitWithin("Deposit", depositArgs(1, 1), 20*time.Millisecond)
		return d.Brownout()
	})
	if _, err := fe.Submit("Deposit", depositArgs(1, 1)).Wait(); !errors.Is(err, ErrBrownout) {
		t.Fatalf("brownout submit err = %v, want ErrBrownout", err)
	}
	if s := fe.ShedStats(); s.Brownout == 0 {
		t.Fatalf("shed stats %+v should count the brownout shed", s)
	}

	plan.Disarm()
	waitHealth(t, "healthy again", func() bool { return !d.Brownout() && d.Health().State == "healthy" })
	if _, err := fe.Exec("Deposit", depositArgs(1, 1)); err != nil {
		t.Fatalf("post-recovery deposit: %v", err)
	}
	trMu.Lock()
	trs := append([]string(nil), transitions...)
	trMu.Unlock()
	if len(trs) < 2 || d.Health().Brownouts < 1 {
		t.Fatalf("transitions %v, brownouts %d: want at least one full trip/clear", trs, d.Health().Brownouts)
	}
}

func waitHealth(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
