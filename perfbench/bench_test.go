package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"pacman"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check the output
// against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTinyRuns runs every benchmarked workload at a tiny size, untraced and
// traced, and checks that each metric BENCHMARK.json names is reported,
// finite and in its unit, that the traced run wrote spans, and that the run
// reports nothing it does not name.
func TestTinyRuns(t *testing.T) {
	spec := loadSpec(t)
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			name := wl.Name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				spans := filepath.Join(t.TempDir(), "spans.jsonl")
				res, _, err := run(options{workload: wl.Name, seed: 7, trace: trace, spans: spans, txns: 300, minRounds: 2})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted != 3*300 || res.Failed != 0 {
					t.Fatalf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s missing", m.Name)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s = %v, not finite", m.Name, got.Value)
					case got.Unit != m.Unit:
						t.Errorf("%s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				if trace {
					if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
						t.Errorf("no spans written: %v", err)
					}
				}
			})
		}
	}
}

// TestGateRejectsWrongDigest restarts a crashed instance twice on the same
// devices: against a deliberately wrong expected digest the correctness
// gate must fail, against the true one it must pass.
func TestGateRejectsWrongDigest(t *testing.T) {
	w, err := findWorkload("smallbank-cl-wire")
	if err != nil {
		t.Fatal(err)
	}
	bp, calls := w.build(3, 200)
	db, err := pacman.Launch(bp, pacman.Options{Logging: w.logging, Devices: devices, EpochInterval: epoch})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := db.NewFrontend(pacman.FrontendConfig{Workers: frontendWorkers})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer time.AfterFunc(time.Minute, func() { close(stop) }).Stop()
	r := &round{recs: make([]rec, len(calls))}
	if err := closedLoop(fe, calls, 64, r, stop); err != nil {
		t.Fatal(err)
	}
	fe.Close()
	want := digest(db, bp)
	db.Crash()

	wrong := append(stateDigest(nil), want...)
	wrong[1].sum[0] ^= 1
	err = r.recover(db.Devices(), bp, wrong, false, stop)
	if err == nil || !strings.Contains(err.Error(), wrong[1].table) {
		t.Fatalf("gate passed a wrong digest (err %v)", err)
	}
	if err := r.recover(db.Devices(), bp, want, false, stop); err != nil {
		t.Fatalf("gate failed the true digest: %v", err)
	}
}

// TestSelfTimes checks the self-time derivation on a tree whose children
// overlap and overhang their parent.
func TestSelfTimes(t *testing.T) {
	l := &spanLog{}
	tr := l.newTrace()
	root := l.add(tr, 0, "root", 0, 100)
	a := l.add(tr, root, "a", 10, 40)
	l.add(tr, root, "b", 30, 120)
	l.add(tr, a, "c", 0, 20)
	self, roots := selfTimes(l.spans)
	want := map[string]int64{"root": 10, "a": 20, "b": 90, "c": 20}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("self(%s) = %d, want %d", k, self[k], v)
		}
	}
	if roots["root"] != 1 {
		t.Errorf("roots %v, want 1 root", roots)
	}
}

// TestTileCountsMoves checks that tile clamps out-of-order boundaries into
// a tiling of the parent and adds up how far it moved them.
func TestTileCountsMoves(t *testing.T) {
	l := &spanLog{}
	tl := &l.requests
	tl.rootNs = 100
	tr := l.newTrace()
	root := l.add(tr, 0, "root", 100, 200)
	// 90 lies before the root (moved 10 to 100), 150 then 140 runs
	// backwards (140 moved 10 to 150), 230 lies past the end (moved 30).
	b := l.tile(tl, tr, root, []string{"a", "b", "c", "d", "e"}, 100, 90, 150, 140, 230, 200)
	want := []int64{100, 100, 150, 150, 200, 200}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("boundaries %v, want %v", b, want)
		}
	}
	if tl.moved != 50 || tl.movedN != 3 || tl.frac() != 0.5 {
		t.Errorf("moved %d ns over %d boundaries (%v), want 50 over 3 (0.5)", tl.moved, tl.movedN, tl.frac())
	}
	self, _ := selfTimes(l.spans)
	if self["root"] != 0 || self["b"]+self["d"] != 100 {
		t.Errorf("self times %v do not tile the root", self)
	}
}

// TestQuietRounds checks that contended rounds are left out, and that the
// least contended rounds are kept when too few are quiet.
func TestQuietRounds(t *testing.T) {
	rs := []*round{{steal: 0.2}, {steal: 0}, {steal: 0.3}, {steal: 0.01}, {steal: 0.1}}
	steals := func(rs []*round) []float64 {
		var s []float64
		for _, r := range rs {
			s = append(s, r.steal)
		}
		return s
	}
	if got := steals(quiet(rs, 2)); !slices.Equal(got, []float64{0, 0.01}) {
		t.Errorf("quiet(2) kept %v, want [0 0.01]", got)
	}
	if got := steals(quiet(rs, 3)); !slices.Equal(got, []float64{0, 0.01, 0.1}) {
		t.Errorf("quiet(3) kept %v, want [0 0.01 0.1]", got)
	}
}
