package runstore

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

func benchRun(id string, ns, allocs float64) Run {
	rep := &BenchReport{Benchmarks: []BenchBenchmark{
		{Pkg: "aimt", Name: "SimulatorThroughput", NsPerOp: ns, AllocsPerOp: &allocs,
			Metrics: map[string]float64{"blocks/op": 9318}, BlocksPerSec: 9318 / (ns * 1e-9)},
	}}
	return rep.Run(id)
}

func TestSelfDiffHasNoRegressions(t *testing.T) {
	r := benchRun("same", 1.79e6, 24)
	d := DiffRuns(r, r, 1.25)
	if d.Regressed() {
		t.Fatalf("self-diff regressed: %+v", d.Regressions())
	}
	for _, row := range d.Rows {
		if row.Ratio != 1 {
			t.Fatalf("self-diff ratio %v on %s", row.Ratio, row.Metric)
		}
	}
}

func TestDiffFlagsInjectedRegression(t *testing.T) {
	old := benchRun("base", 1.79e6, 24)
	slow := benchRun("slow", 2*1.79e6, 24) // injected 2x ns/op regression
	d := DiffRuns(old, slow, 1.25)
	if !d.Regressed() {
		t.Fatal("2x ns/op regression not flagged at 1.25x noise")
	}
	found := false
	for _, row := range d.Regressions() {
		if row.Metric == "aimt.SimulatorThroughput ns/op" {
			found = true
		}
	}
	if !found {
		t.Fatalf("ns/op row missing from regressions: %+v", d.Regressions())
	}
	// The same 2x drift within a generous threshold passes.
	if DiffRuns(old, slow, 2.5).Regressed() {
		t.Fatal("2x drift flagged beyond a 2.5x noise threshold")
	}
}

func TestDiffDirections(t *testing.T) {
	old := Run{ID: "old", Metrics: []Metric{
		{Name: "tput req/Mcyc", Value: 100, Unit: "req/Mcyc"},
		{Name: "miss rate", Value: 0.10, Unit: "rate"},
		{Name: "pe util frac", Value: 0.5, Unit: "frac"},
		{Name: "gone ns/op", Value: 5, Unit: "ns/op"},
	}}
	new := Run{ID: "new", Metrics: []Metric{
		{Name: "tput req/Mcyc", Value: 50, Unit: "req/Mcyc"}, // halved throughput: regression
		{Name: "miss rate", Value: 0.05, Unit: "rate"},       // improvement
		{Name: "pe util frac", Value: 0.9, Unit: "frac"},     // directionless: info
		{Name: "fresh ns/op", Value: 1, Unit: "ns/op"},       // added
	}}
	d := DiffRuns(old, new, 1.25)
	want := map[string]string{
		"tput req/Mcyc": VerdictRegression,
		"miss rate":     VerdictImprovement,
		"pe util frac":  VerdictInfo,
		"gone ns/op":    VerdictMissing,
		"fresh ns/op":   VerdictAdded,
	}
	for _, row := range d.Rows {
		if row.Verdict != want[row.Metric] {
			t.Errorf("%s: verdict %s, want %s", row.Metric, row.Verdict, want[row.Metric])
		}
	}
	if len(d.Rows) != len(want) {
		t.Fatalf("row count %d, want %d", len(d.Rows), len(want))
	}
	if got := len(d.Regressions()); got != 2 { // throughput + missing metric
		t.Fatalf("regressions = %d, want 2", got)
	}
}

// TestDiffGolden pins the rendered -diff output byte-for-byte; it is
// the structured artifact CI prints on a bench regression.
func TestDiffGolden(t *testing.T) {
	old := benchRun("bench_baseline", 1.79e6, 24)
	new := benchRun("BENCH_9", 3.58e6, 24)
	var buf bytes.Buffer
	if err := DiffRuns(old, new, 1.25).WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "diff.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("diff output drifted (use -update if intentional):\n--- got\n%s--- want\n%s", buf.String(), want)
	}
}

// TestDiffFromZero: a metric whose old value is zero has no ratio,
// but leaving zero still reads by the unit's direction, at any noise.
func TestDiffFromZero(t *testing.T) {
	verdict := func(unit string, old, new float64) string {
		d := DiffRuns(
			Run{Metrics: []Metric{{Name: "m", Value: old, Unit: unit}}},
			Run{Metrics: []Metric{{Name: "m", Value: new, Unit: unit}}}, 1e9)
		return d.Rows[0].Verdict
	}
	for _, tc := range []struct {
		unit     string
		old, new float64
		want     string
	}{
		{"allocs/op", 0, 50, VerdictRegression},
		{"allocs/op", 50, 0, VerdictImprovement},
		{"allocs/op", 0, 0, VerdictOK},
		{"blocks/s", 0, 5, VerdictImprovement},
		{"frac", 0, 0.5, VerdictInfo},
	} {
		if got := verdict(tc.unit, tc.old, tc.new); got != tc.want {
			t.Errorf("%s %v -> %v: verdict %s, want %s", tc.unit, tc.old, tc.new, got, tc.want)
		}
	}
}

// TestBenchReportKeepsMeasuredZero: a measured 0 allocs/op survives
// the JSON round trip into a Run metric; an unrecorded one stays
// absent.
func TestBenchReportKeepsMeasuredZero(t *testing.T) {
	zero := 0.0
	raw, err := json.Marshal(BenchReport{Benchmarks: []BenchBenchmark{
		{Pkg: "p", Name: "Zero", NsPerOp: 1, BytesPerOp: &zero, AllocsPerOp: &zero},
		{Pkg: "p", Name: "Unmeasured", NsPerOp: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var rep BenchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	r := rep.Run("x")
	if v, ok := r.Metric("p.Zero allocs/op"); !ok || v != 0 {
		t.Errorf("measured 0 allocs/op: Metric = %v, %v; want 0, true", v, ok)
	}
	if _, ok := r.Metric("p.Zero B/op"); !ok {
		t.Error("measured 0 B/op dropped")
	}
	if _, ok := r.Metric("p.Unmeasured allocs/op"); ok {
		t.Error("unmeasured allocs/op appeared as a metric")
	}
}
