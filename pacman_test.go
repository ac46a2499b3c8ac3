package pacman

import (
	"errors"
	"sync"
	"testing"
	"time"

	"pacman/internal/engine"
	"pacman/internal/proc"
	"pacman/internal/tuple"
)

// launchBank launches the 40-account bank blueprint.
func launchBank(tb testing.TB, opts Options) *DB {
	tb.Helper()
	d, err := Launch(bankBlueprint(40), opts)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

func TestOpenExecuteClose(t *testing.T) {
	d := launchBank(t, Options{Logging: CommandLogging, EpochInterval: time.Millisecond})
	fe := d.MustFrontend(FrontendConfig{Workers: 1})
	ts, err := fe.Exec("Transfer", Args{proc.A(tuple.I(1)), proc.A(tuple.I(50))})
	if err != nil {
		t.Fatal(err)
	}
	if ts == 0 {
		t.Error("zero timestamp")
	}
	if _, err := fe.Exec("Nope", nil); err == nil {
		t.Error("unknown procedure accepted")
	}
	r, _ := d.Table("Current").GetRow(1)
	if r.LatestData()[1].Int() != 950 {
		t.Errorf("balance = %d", r.LatestData()[1].Int())
	}
	fe.Close()
	d.Close()
}

// TestCrashRecoverRoundTrip recovers the same command log twice: first with
// serial CLR, then — after crashing the CLR-restarted instance — with CLR-P
// on the same devices. Both must reproduce the pre-crash state.
func TestCrashRecoverRoundTrip(t *testing.T) {
	bp := bankBlueprint(40)
	d, err := Launch(bp, Options{Logging: CommandLogging, EpochInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fe := d.MustFrontend(FrontendConfig{Workers: 1})
	for i := 0; i < 200; i++ {
		if _, err := fe.Exec("Deposit", Args{
			proc.A(tuple.I(int64(1 + i%40))), proc.A(tuple.I(7)), proc.A(tuple.I(int64(1 + i%10))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	fe.Close()
	// Clean flush so the full history is durable, then crash.
	d.Close()
	want := map[uint64]int64{}
	cur := d.Table("Current")
	cur.ScanSlots(0, cur.NumSlots(), func(r *engine.Row) {
		want[r.Key] = r.LatestData()[1].Int()
	})
	d.Crash()

	for _, scheme := range []Scheme{CLR, CLRP} {
		d2, res, err := Restart(d.Devices(), bp, RecoverConfig{Scheme: scheme, Threads: 2})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if res.Entries != 200 {
			t.Fatalf("%v: entries = %d", scheme, res.Entries)
		}
		cur2 := d2.Table("Current")
		for k, v := range want {
			r, ok := cur2.GetRow(k)
			if !ok || r.LatestData()[1].Int() != v {
				t.Fatalf("%v: key %d mismatch", scheme, k)
			}
		}
		d2.Crash()
	}
}

func TestCheckpointViaAPI(t *testing.T) {
	bp := bankBlueprint(40)
	d, err := Launch(bp, Options{Logging: CommandLogging, EpochInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fe := d.MustFrontend(FrontendConfig{Workers: 1})
	for i := 0; i < 50; i++ {
		if _, err := fe.Exec("Deposit", Args{
			proc.A(tuple.I(int64(1 + i%40))), proc.A(tuple.I(5)), proc.A(tuple.I(1)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Let the epoch clock tick past the first batch so the checkpoint's
	// safe-epoch snapshot covers it.
	time.Sleep(5 * time.Millisecond)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := fe.Exec("Deposit", Args{
			proc.A(tuple.I(int64(1 + i%40))), proc.A(tuple.I(5)), proc.A(tuple.I(1)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	fe.Close()
	d.Close()
	d.Crash()
	d2, res, err := Restart(d.Devices(), bp, RecoverConfig{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if res.CheckpointRows == 0 {
		t.Error("checkpoint not used")
	}
	if res.Entries >= 100 {
		t.Errorf("checkpoint did not shorten the log: %d entries", res.Entries)
	}
}

func TestAnalyzeExposesGDG(t *testing.T) {
	d := launchBank(t, Options{})
	defer d.Close()
	if g := d.Analyze(); g.NumBlocks() != 4 {
		t.Errorf("bank GDG blocks = %d, want 4", g.NumBlocks())
	}
}

// TestSessionSubmitFuture: a Future submitted through the Frontend's
// session pool resolves only once its epoch is durable, and an unknown
// procedure resolves with an error instead of executing.
func TestSessionSubmitFuture(t *testing.T) {
	d := launchBank(t, Options{Logging: CommandLogging, EpochInterval: time.Millisecond})
	defer d.Close()
	fe := d.MustFrontend(FrontendConfig{Workers: 1})
	defer fe.Close()
	if _, err := fe.Submit("Nope", nil).Wait(); err == nil {
		t.Error("unknown procedure future resolved without error")
	}
	ts, err := fe.Submit("Deposit", Args{proc.A(tuple.I(1)), proc.A(tuple.I(3)), proc.A(tuple.I(1))}).Wait()
	if err != nil || ts == 0 {
		t.Fatalf("Wait = (%v, %v)", ts, err)
	}
	if d.PersistedEpoch() < uint32(ts>>32) {
		t.Fatalf("future durable at epoch %d but pepoch = %d", ts>>32, d.PersistedEpoch())
	}
	r, _ := d.Table("Current").GetRow(1)
	if r.LatestData()[1].Int() != 1003 {
		t.Fatalf("balance after durable deposit = %d, want 1003", r.LatestData()[1].Int())
	}
}

// TestFrontendMultiplexAPI is the acceptance scenario at the public API: 64
// client goroutines over an 8-session Frontend, every Future resolving with
// a durable timestamp.
func TestFrontendMultiplexAPI(t *testing.T) {
	bp := bankBlueprint(40)
	d, err := Launch(bp, Options{Logging: CommandLogging, EpochInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := d.NewFrontend(FrontendConfig{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if fe.Sessions() != 8 {
		t.Fatalf("sessions = %d, want 8", fe.Sessions())
	}
	const clients, perClient = 64, 20
	futs := make([][]*Future, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				futs[c] = append(futs[c], fe.Submit("Deposit", Args{
					proc.A(tuple.I(int64(1 + (c+i)%40))), proc.A(tuple.I(1)), proc.A(tuple.I(int64(1 + c%10))),
				}))
			}
		}(c)
	}
	wg.Wait()
	fe.Close()
	d.Close()
	for c := range futs {
		for i, f := range futs[c] {
			ts, err := f.Wait()
			if err != nil {
				t.Fatalf("client %d future %d: %v", c, i, err)
			}
			if ts == 0 || d.PersistedEpoch() < uint32(ts>>32) {
				t.Fatalf("client %d future %d: epoch %d not durable (pepoch %d)",
					c, i, ts>>32, d.PersistedEpoch())
			}
		}
	}
	// The recovered state must include every one of the 64×20 deposits.
	d.Crash()
	d2, res, err := Restart(d.Devices(), bp, RecoverConfig{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if res.Entries != clients*perClient {
		t.Fatalf("recovered %d entries, want %d", res.Entries, clients*perClient)
	}
}

// TestFrontendCrashResolvesFutures: Crash with submissions in flight —
// every future resolves durable or with ErrCrashed; nothing hangs.
func TestFrontendCrashResolvesFutures(t *testing.T) {
	d := launchBank(t, Options{Logging: CommandLogging, EpochInterval: time.Millisecond})
	fe, err := d.NewFrontend(FrontendConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var futs []*Future
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f := fe.Submit("Deposit", Args{
					proc.A(tuple.I(int64(1 + (c+i)%40))), proc.A(tuple.I(1)), proc.A(tuple.I(1)),
				})
				mu.Lock()
				futs = append(futs, f)
				mu.Unlock()
			}
		}(c)
	}
	time.Sleep(3 * time.Millisecond)
	d.Crash()
	close(stop)
	wg.Wait()
	fe.Close()
	mu.Lock()
	all := futs
	mu.Unlock()
	deadline := time.After(5 * time.Second)
	durable, crashed := 0, 0
	for i, f := range all {
		select {
		case <-f.Done():
		case <-deadline:
			t.Fatalf("future %d/%d unresolved after crash", i, len(all))
		}
		switch _, err := f.Wait(); {
		case err == nil:
			durable++
		case errors.Is(err, ErrCrashed):
			crashed++
		case errors.Is(err, ErrFrontendClosed):
		default:
			t.Fatalf("future %d: %v", i, err)
		}
	}
	if durable+crashed == 0 {
		t.Fatal("no futures observed")
	}
}

func TestAdHocViaAPI(t *testing.T) {
	bp := bankBlueprint(40)
	d, err := Launch(bp, Options{Logging: CommandLogging, EpochInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fe := d.MustFrontend(FrontendConfig{Workers: 1})
	if _, err := fe.ExecAdHoc("Deposit", Args{
		proc.A(tuple.I(2)), proc.A(tuple.I(11)), proc.A(tuple.I(1)),
	}); err != nil {
		t.Fatal(err)
	}
	fe.Close()
	d.Close()
	d.Crash()
	d2, _, err := Restart(d.Devices(), bp, RecoverConfig{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	r, _ := d2.Table("Current").GetRow(2)
	if r.LatestData()[1].Int() != 1011 {
		t.Errorf("ad-hoc deposit lost: %d", r.LatestData()[1].Int())
	}
}
