package runstore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func fixedClock() time.Time { return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC) }

func openFixed(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Now = fixedClock
	return s
}

func TestAppendReopenRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := openFixed(t, dir)
	r1, err := s.Append(Run{Source: "serve", Labels: map[string]string{"sched": "AI-MT"},
		Metrics: []Metric{{Name: "p99 cycles", Value: 1234, Unit: "cycles"}}})
	if err != nil {
		t.Fatal(err)
	}
	if r1.ID != "run-000001" {
		t.Fatalf("assigned ID = %q, want run-000001", r1.ID)
	}
	if r1.Time != "2026-08-08T12:00:00Z" {
		t.Fatalf("assigned Time = %q", r1.Time)
	}
	if _, err := s.Append(Run{ID: "custom", Source: "bench"}); err != nil {
		t.Fatal(err)
	}

	s2 := openFixed(t, dir)
	if s2.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", s2.Len())
	}
	got, ok := s2.Get("run-000001")
	if !ok || got.Labels["sched"] != "AI-MT" {
		t.Fatalf("Get(run-000001) = %+v, %v", got, ok)
	}
	if v, ok := got.Metric("p99 cycles"); !ok || v != 1234 {
		t.Fatalf("Metric(p99 cycles) = %v, %v", v, ok)
	}
	// Sequence numbering resumes past existing runs.
	r3, err := s2.Append(Run{Source: "serve"})
	if err != nil {
		t.Fatal(err)
	}
	if r3.ID != "run-000002" {
		t.Fatalf("resumed ID = %q, want run-000002", r3.ID)
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openFixed(t, dir)
	if _, err := s.Append(Run{Source: "serve"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(Run{Source: "serve"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, FileName)
	// Simulate a writer dying mid-append: a partial JSON line with no
	// trailing newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"run-0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openFixed(t, dir)
	if !s2.Recovered() {
		t.Fatal("Open did not report torn-tail recovery")
	}
	if s2.Len() != 2 {
		t.Fatalf("Len after recovery = %d, want 2", s2.Len())
	}
	// The tail was truncated away: the next append lands cleanly and a
	// further reopen is clean.
	if _, err := s2.Append(Run{Source: "serve"}); err != nil {
		t.Fatal(err)
	}
	s3 := openFixed(t, dir)
	if s3.Recovered() || s3.Len() != 3 {
		t.Fatalf("after recovery+append: recovered=%v len=%d, want false/3", s3.Recovered(), s3.Len())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `run-0000"`) || !strings.HasSuffix(string(data), "\n") {
		t.Fatalf("log not clean after recovery:\n%s", data)
	}
}

func TestCorruptMiddleLineIsAnError(t *testing.T) {
	dir := t.TempDir()
	s := openFixed(t, dir)
	for i := 0; i < 2; i++ {
		if _, err := s.Append(Run{Source: "serve"}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	mangled := "not json\n" + lines[1]
	if err := os.WriteFile(path, []byte(lines[0]+mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted corruption before the tail")
	}
}

func TestBenchReportRunAndGlob(t *testing.T) {
	allocs := 22.0
	rep := &BenchReport{
		GOOS: "linux", GOARCH: "amd64",
		Benchmarks: []BenchBenchmark{
			{Pkg: "aimt", Name: "ServeStream", NsPerOp: 100, AllocsPerOp: &allocs,
				Metrics: map[string]float64{"blocks/op": 5}, BlocksPerSec: 5e7},
		},
	}
	r := rep.Run("BENCH_X")
	if r.Source != "bench" || r.Labels["goos"] != "linux" {
		t.Fatalf("Run() = %+v", r)
	}
	want := map[string]float64{
		"aimt.ServeStream ns/op":     100,
		"aimt.ServeStream allocs/op": 22,
		"aimt.ServeStream blocks/s":  5e7,
		"aimt.ServeStream blocks/op": 5,
	}
	for name, v := range want {
		if got, ok := r.Metric(name); !ok || got != v {
			t.Fatalf("Metric(%q) = %v, %v; want %v", name, got, ok, v)
		}
	}

	dir := t.TempDir()
	for _, name := range []string{"BENCH_10.json", "BENCH_3.json", "BENCH_8.json"} {
		if err := os.WriteFile(filepath.Join(dir, name),
			[]byte(`{"benchmarks":[{"pkg":"aimt","name":"X","iterations":1,"ns_per_op":1}]}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := LoadBenchGlob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, r := range runs {
		if r.Source != "seed" {
			t.Fatalf("glob run source = %q, want seed", r.Source)
		}
		ids = append(ids, r.ID)
	}
	if got := strings.Join(ids, ","); got != "BENCH_3,BENCH_8,BENCH_10" {
		t.Fatalf("glob order = %s, want numeric BENCH_3,BENCH_8,BENCH_10", got)
	}
	if runs, err := LoadBenchGlob(filepath.Join(dir, "NOPE_*.json")); err != nil || len(runs) != 0 {
		t.Fatalf("empty glob = %v, %v; want no runs, no error", runs, err)
	}
}
