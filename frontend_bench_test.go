package pacman

import (
	"sync"
	"testing"
	"time"

	"pacman/internal/proc"
	"pacman/internal/tuple"
)

// BenchmarkFrontendSubmit compares the two client models at equal worker
// count (4 pool sessions, command logging): "blocking" runs one synchronous
// durable Exec per goroutine — each caller eats a full group-commit wait
// per transaction — while "async" keeps many Submit futures in flight per
// client and only settles them at the end. The committed-txns/sec metric
// shows asynchronous submission sustaining far higher throughput because
// the group-commit latency is paid once per epoch, not once per request.
//
//	go test -bench=FrontendSubmit -benchtime=2000x
func BenchmarkFrontendSubmit(b *testing.B) {
	const poolWorkers = 4
	depositArgs := func(i int) Args {
		return Args{
			proc.A(tuple.I(int64(1 + i%40))),
			proc.A(tuple.I(1)),
			proc.A(tuple.I(int64(1 + i%10))),
		}
	}
	setup := func(b *testing.B) *Frontend {
		b.Helper()
		d := launchBank(b, Options{Logging: CommandLogging, EpochInterval: time.Millisecond})
		fe, err := d.NewFrontend(FrontendConfig{Workers: poolWorkers})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			fe.Close()
			d.Close()
		})
		return fe
	}

	b.Run("blocking-exec-per-goroutine", func(b *testing.B) {
		fe := setup(b)
		b.ResetTimer()
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < poolWorkers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < b.N; i += poolWorkers {
					if _, err := fe.Exec("Deposit", depositArgs(i)); err != nil {
						b.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "committed-txns/sec")
	})

	b.Run("async-submit", func(b *testing.B) {
		fe := setup(b)
		b.ResetTimer()
		start := time.Now()
		futs := make([]*Future, b.N)
		for i := 0; i < b.N; i++ {
			futs[i] = fe.Submit("Deposit", depositArgs(i))
		}
		for i, f := range futs {
			if _, err := f.Wait(); err != nil {
				b.Fatalf("future %d: %v", i, err)
			}
		}
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "committed-txns/sec")
	})
}
