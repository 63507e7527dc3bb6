package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aimt/internal/runstore"
)

const benchText = `goos: linux
goarch: amd64
pkg: aimt
cpu: Test CPU
BenchmarkSimulatorThroughput-8   	      10	 3000000 ns/op	        12 blocks/op	      50 allocs/op
BenchmarkServeStream-8           	       5	28000000 ns/op	      50 allocs/op
`

func writeBench(t *testing.T, dir, name string, nsScale float64) string {
	t.Helper()
	rep, err := parse(strings.NewReader(benchText))
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Benchmarks {
		rep.Benchmarks[i].NsPerOp *= nsScale
	}
	path := filepath.Join(dir, name)
	if err := saveReport(path, rep); err != nil {
		t.Fatal(err)
	}
	return path
}

func saveReport(path string, rep *runstore.BenchReport) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(benchText))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "SimulatorThroughput" || b.NsPerOp != 3e6 || b.AllocsPerOp == nil || *b.AllocsPerOp != 50 {
		t.Errorf("benchmark 0 = %+v", b)
	}
	if b.BlocksPerSec == 0 {
		t.Error("blocks/op metric did not yield BlocksPerSec")
	}
}

// TestDiffSelfIsClean is the bench-compare contract's zero side: a
// run diffed against itself must exit cleanly.
func TestDiffSelfIsClean(t *testing.T) {
	dir := t.TempDir()
	p := writeBench(t, dir, "a.json", 1)
	if err := diff(p, p, 1.5); err != nil {
		t.Fatalf("self-diff failed: %v", err)
	}
}

// TestDiffFlagsRegression is the nonzero side: a 2× ns/op inflation
// must fail at the default 1.5× noise threshold and pass at 2.5×.
func TestDiffFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeBench(t, dir, "old.json", 1)
	slow := writeBench(t, dir, "slow.json", 2)
	err := diff(old, slow, 1.5)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("2x regression not flagged: err=%v", err)
	}
	if err := diff(old, slow, 2.5); err != nil {
		t.Fatalf("2x drift failed under 2.5x noise: %v", err)
	}
}

// TestLoadRunArgStore exercises the dir[#runID] form against a real
// store: default = latest run, fragment = that run, bad ID = error.
func TestLoadRunArgStore(t *testing.T) {
	dir := t.TempDir()
	st, err := runstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := parse(strings.NewReader(benchText))
	if err != nil {
		t.Fatal(err)
	}
	first, err := st.Append(rep.Run(""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(rep.Run("")); err != nil {
		t.Fatal(err)
	}

	latest, err := loadRunArg(dir)
	if err != nil {
		t.Fatal(err)
	}
	if latest.ID == first.ID {
		t.Errorf("bare dir resolved to %s, want the later run", latest.ID)
	}
	got, err := loadRunArg(dir + "#" + first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != first.ID {
		t.Errorf("fragment resolved to %s, want %s", got.ID, first.ID)
	}
	if _, err := loadRunArg(dir + "#run-999999"); err == nil {
		t.Error("missing run ID did not error")
	}
}

// writeBenchText parses bench output and saves it as a BENCH-style
// JSON report, the same parse -> JSON path `make bench` takes.
func writeBenchText(t *testing.T, dir, name, text string) string {
	t.Helper()
	rep, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := saveReport(path, rep); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiffZeroAllocs pins how the gate reads a measured zero through
// parse, JSON and diff: going from 50 allocs/op to 0 is an
// improvement, and a zero-allocation benchmark that starts allocating
// is a regression.
func TestDiffZeroAllocs(t *testing.T) {
	const line = "pkg: aimt\nBenchmarkCandidateScan-8   100   250 ns/op   %d B/op   %d allocs/op\n"
	dir := t.TempDir()
	zero := writeBenchText(t, dir, "zero.json", fmt.Sprintf(line, 0, 0))
	fifty := writeBenchText(t, dir, "fifty.json", fmt.Sprintf(line, 800, 50))

	raw, err := os.ReadFile(zero)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"allocs_per_op": 0`) {
		t.Errorf("measured 0 allocs/op not recorded in the JSON report:\n%s", raw)
	}
	if err := diff(fifty, zero, 2); err != nil {
		t.Errorf("50 -> 0 allocs/op failed the gate: %v", err)
	}
	if err := diff(zero, fifty, 2); err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Errorf("0 -> 50 allocs/op passed the gate: err=%v", err)
	}
}

// TestCheckedInBaselineDiffs runs the benchcheck gate's exact
// arguments against a fabricated run at the baseline's own numbers:
// it passes, and inflating every ns/op past the 2x limit fails it.
// Where the baseline records no allocs/op (CandidateScan) the run
// allocates 50 per op and still passes: such entries are not
// allocation-gated.
func TestCheckedInBaselineDiffs(t *testing.T) {
	baseline := filepath.Join("..", "..", "testdata", "bench_baseline.json")
	base, err := runstore.LoadBenchReport(baseline)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, scale := range []float64{1, 2.5} {
		var sb strings.Builder
		for _, b := range base.Benchmarks {
			allocs := 50.0
			if b.AllocsPerOp != nil {
				allocs = *b.AllocsPerOp
			}
			fmt.Fprintf(&sb, "pkg: %s\nBenchmark%s-8  1  %.0f ns/op  0 B/op  %.0f allocs/op\n", b.Pkg, b.Name, b.NsPerOp*scale, allocs)
		}
		cur := writeBenchText(t, dir, fmt.Sprintf("cur%v.json", scale), sb.String())
		err := diff(baseline, cur, 2)
		if scale == 1 && err != nil {
			t.Errorf("baseline-level run failed the gate: %v", err)
		}
		if scale > 2 && err == nil {
			t.Errorf("%.1fx ns/op passed the 2x gate", scale)
		}
	}
}
