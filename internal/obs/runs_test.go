package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aimt/internal/runstore"
)

var updateRuns = flag.Bool("update-runs", false, "rewrite the runs dashboard golden under testdata/")

// dashboardFixture builds a deterministic run set shaped like real
// history: two bench "seed" artifacts (a perf trajectory) plus a
// serving load curve over two schedulers, and a small ledger.
func dashboardFixture() ([]runstore.Run, *Ledger) {
	bench := func(id string, ns, allocs float64) runstore.Run {
		simAllocs := allocs / 7
		rep := &runstore.BenchReport{GOOS: "linux", Benchmarks: []runstore.BenchBenchmark{
			{Pkg: "aimt", Name: "ServeStream", NsPerOp: ns, AllocsPerOp: &allocs},
			{Pkg: "aimt", Name: "SimulatorThroughput", NsPerOp: ns / 8, AllocsPerOp: &simAllocs},
		}}
		r := rep.Run(id)
		r.Source = "seed"
		r.Time = "2026-08-08T00:00:00Z"
		return r
	}
	serve := func(id, sched, load string, p99, miss float64) runstore.Run {
		return runstore.Run{
			ID: id, Time: "2026-08-08T01:00:00Z", Commit: "abc1234", Source: "serve",
			Labels: map[string]string{"mix": "CNN/RNN", "sched": sched, "load": load},
			Metrics: []runstore.Metric{
				{Name: "p99 cycles", Value: p99, Unit: "cycles"},
				{Name: "miss rate", Value: miss, Unit: "rate"},
				{Name: "tput req/Mcyc", Value: 12, Unit: "req/Mcyc"},
			},
		}
	}
	runs := []runstore.Run{
		bench("BENCH_3", 26483471, 272461),
		bench("BENCH_8", 4722945, 22),
		serve("run-000001", "AI-MT", "0.50", 40000, 0),
		serve("run-000002", "AI-MT", "1.10", 90000, 0.08),
		serve("run-000003", "FIFO", "0.50", 52000, 0.01),
		serve("run-000004", "FIFO", "1.10", 240000, 0.31),
	}
	led := NewLedger(16)
	led.Record(Decision{Cycle: 100, Kind: KindMBPrefetch, Detail: 64})
	led.Record(Decision{Cycle: 220, Kind: KindCBMerge, Detail: 32})
	led.Record(Decision{Cycle: 400, Kind: KindMBPrefetch, Detail: 64})
	led.Record(Decision{Cycle: 950, Kind: KindCBSplit, Detail: 12})
	return runs, led
}

// TestRunsDashboardGolden pins the dashboard byte-for-byte: the HTML
// is a pure function of the run set and ledger, so any drift in page
// structure, chart geometry or palette fails here first.
func TestRunsDashboardGolden(t *testing.T) {
	runs, led := dashboardFixture()
	got := RunsHTML(runs, led)
	path := filepath.Join("testdata", "runs_dashboard.golden.html")
	if *updateRuns {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden file (regenerate with -update-runs): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("dashboard HTML drifted from %s (use -update-runs if intentional); got %d bytes, want %d",
			path, len(got), len(want))
	}
}

func TestRunsDashboardContent(t *testing.T) {
	runs, led := dashboardFixture()
	page := string(RunsHTML(runs, led))
	for _, want := range []string{
		"<svg",               // charts rendered inline
		"BENCH_3", "BENCH_8", // trajectory ticks + table rows
		"ns/op across runs", // trajectory chart title
		"log10(allocs/op)",  // allocation trajectory is log-scaled
		"p99 latency vs offered load — CNN/RNN",
		"AI-MT", "FIFO", // load-curve series
		"cumulative decisions by kind",
		"mb-prefetch", // ledger series present
		"run-000004",  // runs table row
	} {
		if !strings.Contains(page, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	if n := strings.Count(page, "<svg"); n != 5 {
		t.Errorf("dashboard has %d charts, want 5 (2 trajectory, 2 load, 1 ledger)", n)
	}
}

func TestRunsDashboardEmpty(t *testing.T) {
	page := string(RunsHTML(nil, nil))
	for _, want := range []string{"no runs recorded yet", "no bench runs", "no serving runs", "no ledger"} {
		if !strings.Contains(page, want) {
			t.Errorf("empty dashboard missing %q", want)
		}
	}
}

func TestAttachRunsEndpoints(t *testing.T) {
	runs, led := dashboardFixture()
	mux := http.NewServeMux()
	AttachRuns(mux, func() []runstore.Run { return runs }, led)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(resp.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("/runs: status %d, type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(buf.String(), "<svg") || !strings.Contains(buf.String(), "run-000001") {
		t.Error("/runs missing chart or run row")
	}

	resp2, err := http.Get(srv.URL + "/runs.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var body struct {
		Runs []runstore.Run `json:"runs"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Runs) != len(runs) || body.Runs[2].Labels["sched"] != "AI-MT" {
		t.Fatalf("/runs.json returned %d runs", len(body.Runs))
	}
}
