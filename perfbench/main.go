// Command perfbench is the repository's benchmark: for one workload it
// launches a fresh instance through the public pacman API, drives a seeded
// set of calls through it, crashes it once every future has resolved,
// restarts it on the same devices and checks that the recovered state is
// exactly the pre-crash state, round after round for --seconds seconds. It
// prints a table and, as its last line, one JSON object with the metrics
// BENCHMARK.json names. See README.md.
//
//	go run . --workload tpcc-cl --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// options are the benchmark's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// spans is the file a traced run writes the spans of its last traced
	// round to (its restart and every 16th request); empty writes none.
	// The command line sets spansPath(workload) with --trace 1.
	spans string
	// window and rate override the workload's closed-loop window and
	// open-loop rate (0 keeps the definition's), for the window and pacing
	// checks in README.md.
	window, rate int
	// txns overrides the workload's calls per round and minRounds is the
	// least number of measured rounds, however short the run; the tests
	// set both for their tiny runs, the command line neither.
	txns, minRounds int
}

// defaultMinRounds is the least number of measured rounds of a run from
// the command line.
const defaultMinRounds = 3

// spansPath is where a traced run from the command line writes its spans,
// relative to the checkout root run.py runs it from.
func spansPath(workload string) string {
	return filepath.Join(".bench_build", "perfbench", "spans-"+workload+".jsonl")
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// row is one line of the printed table: a metric and the number of samples
// behind it.
type row struct {
	name  string
	unit  string
	value float64
	n     int
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name (tpcc-cl, tpcc-pl, smallbank-cl-wire)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated calls")
	flag.IntVar(&o.seconds, "seconds", 10, "how long to measure, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.IntVar(&o.window, "window", 0, "closed-loop in-flight window per client (0: the workload's)")
	flag.IntVar(&o.rate, "rate", 0, "open-loop offered rate per second (0: the workload's)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	o.minRounds = defaultMinRounds
	if o.trace {
		o.spans = spansPath(o.workload)
	}

	res, table, err := run(o)
	for _, r := range table {
		fmt.Printf("%-34s %14.4f %-6s n=%d\n", r.name, r.value, r.unit, r.n)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if err := writeResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

func writeResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// run measures one workload. A failed round (a correctness-gate violation
// or a wait past the deadline) ends the run with correct = false.
func run(o options) (result, []row, error) {
	res := result{Metrics: map[string]metric{}}
	w, err := findWorkload(o.workload)
	if err != nil {
		return res, nil, err
	}
	if o.txns > 0 {
		w.txns = o.txns
	}
	if o.window > 0 {
		w.window = o.window
	}
	if o.rate > 0 {
		w.rate = o.rate
	}
	measure := time.Duration(o.seconds) * time.Second
	bp, calls := w.build(o.seed, w.txns)

	// Every wait in the run ends here, well inside the 180 s a run may
	// take, so a hung future fails the run instead of stalling it.
	stop := make(chan struct{})
	deadline := time.AfterFunc(measure+100*time.Second, func() { close(stop) })
	defer deadline.Stop()

	// account counts a finished round's outcomes, reports its first
	// failures and drops its request records, so the live heap does not
	// grow with the number of rounds.
	var acc layerAcc
	account := func(r *round) error {
		fmt.Fprintf(os.Stderr, "round traced=%v: %.0f commits/s, durable p50 %.2f ms p99 %.2f ms, restart %.3f s, setup %.4f s, steal %.3f\n",
			r.traced, float64(r.outcomes[committed])/r.forward.Seconds(), r.p50, r.p99, r.restart.Seconds(), r.setup.Seconds(), r.steal)
		res.Attempted += r.attempted
		res.Failed += r.outcomes[failed] + r.outcomes[unresolved]
		shown := 0
		for i := range r.recs {
			if r.recs[i].err != nil && shown < 5 {
				fmt.Fprintf(os.Stderr, "perfbench: failed request %d: %v\n", i, r.recs[i].err)
				shown++
			}
		}
		if r.outcomes[committed]+r.outcomes[rolledBack]+r.outcomes[failed] != r.attempted {
			return errors.New("committed + rolled back + failed != attempted")
		}
		if r.traced {
			acc.add(r, calls)
		}
		r.recs, r.layer = nil, nil
		return nil
	}
	// The warm-up round fills the heap and caches; its metrics are dropped,
	// its correctness checks are not.
	warm, err := runRound(w, bp, calls, false, stop)
	if err == nil {
		err = account(warm)
	}
	if err != nil {
		return res, nil, fmt.Errorf("warm-up round: %w", err)
	}

	var plain, traced []*round
	start := time.Now()
	for i := 0; i < o.minRounds || time.Since(start) < measure; i++ {
		isTraced := o.trace && i%2 == 0
		r, err := runRound(w, bp, calls, isTraced, stop)
		if err == nil {
			err = account(r)
		}
		if err != nil {
			return res, nil, fmt.Errorf("round %d: %w", i+1, err)
		}
		if isTraced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}

	// Contended rounds are left out of the end-to-end figures (host.go);
	// the host rows say how many there were.
	table := endToEnd(quiet(plain, o.minRounds))
	reported := table
	host := hostRows(append(plain, traced...))
	if o.trace {
		layers, err := acc.rows(table, endToEnd(quiet(traced, o.minRounds)))
		if err != nil {
			return res, table, err
		}
		if o.spans != "" && acc.last != nil {
			if err := writeSpans(o.spans, sampleSpans(acc.last.spans, 16)); err != nil {
				return res, table, err
			}
		}
		layers = append(layers, host...)
		table = append(table, layers...)
		reported = layers
	} else {
		table = append(table, host...)
	}
	for _, r := range reported {
		if math.IsNaN(r.value) || math.IsInf(r.value, 0) {
			return res, table, fmt.Errorf("metric %s is not finite", r.name)
		}
		res.Metrics[r.name] = metric{Value: r.value, Unit: r.unit}
	}
	res.Correct = true
	return res, table, nil
}

// hostRows reports the median steal share of the measured rounds and how
// many of them were contended.
func hostRows(rs []*round) []row {
	var steal []float64
	contended := 0
	for _, r := range rs {
		steal = append(steal, r.steal)
		if r.steal > maxSteal {
			contended++
		}
	}
	return []row{
		{"host.steal_frac", "ratio", median(steal), len(rs)},
		{"host.contended_rounds", "count", float64(contended), len(rs)},
	}
}

// endToEnd computes the metrics a user of the system sees, over rounds
// measured without tracing, each as the median across rounds of the
// round's figure. A round's latency percentiles are exact, from every
// committed request's sample; n counts the samples of all rounds.
func endToEnd(rs []*round) []row {
	var tps, setup, restart, heap, logBytes, allocs, restartAllocs, p50, p99 []float64
	var ok, attempted, samples int
	for _, r := range rs {
		c := float64(r.outcomes[committed])
		tps = append(tps, c/r.forward.Seconds())
		setup = append(setup, r.setup.Seconds())
		restart = append(restart, r.restart.Seconds())
		heap = append(heap, r.heapMB)
		logBytes = append(logBytes, ratio(float64(r.logBytes), c))
		allocs = append(allocs, ratio(float64(r.mallocs), c))
		restartAllocs = append(restartAllocs, ratio(float64(r.restartMallocs), float64(r.res.Entries)))
		ok += r.outcomes[committed] + r.outcomes[rolledBack]
		attempted += r.attempted
		p50 = append(p50, r.p50)
		p99 = append(p99, r.p99)
		samples += r.outcomes[committed]
	}
	n := len(rs)
	return []row{
		{"commit_tps", "1/s", median(tps), n},
		{"durable_p50_ms", "ms", median(p50), samples},
		{"durable_p99_ms", "ms", median(p99), samples},
		{"recovery_s", "s", median(restart), n},
		{"setup_s", "s", median(setup), n},
		{"success_frac", "ratio", ratio(float64(ok), float64(attempted)), attempted},
		{"heap_live_mb", "MB", median(heap), n},
		{"log_bytes_per_txn", "B", median(logBytes), n},
		{"allocs_per_txn", "count", median(allocs), n},
		{"recovery_allocs_per_entry", "count", median(restartAllocs), n},
	}
}
