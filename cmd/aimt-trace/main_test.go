package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"aimt"
	"aimt/internal/sched"
	"aimt/internal/trace"
	"aimt/internal/workload"
)

// TestRunProducesTraceAndJSON checks the -json export: it parses as
// Chrome trace_event JSON, its "X" slices are exactly the recorder's
// events (as a multiset; the export groups them by engine), and every
// engine that ran gets a thread_name record.
func TestRunProducesTraceAndJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	if err := run("MN/GNMT", "aimt-all", 1, 60, out, 10); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var evs []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(data, &evs); err != nil {
		t.Fatalf("export is not JSON: %v", err)
	}

	// Re-run the same scenario with a recorder to get the events the
	// export must contain.
	cfg := aimt.PaperConfig()
	spec, err := workload.ParseSpec("MN/GNMT")
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.Build(cfg, spec, workload.BuildOptions{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := sched.Lookup("aimt-all")
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	if _, err := aimt.Run(cfg, mix.Nets, e.New(cfg, sched.Mix(mix.MemHeavy)), aimt.RunOptions{Tracer: rec}); err != nil {
		t.Fatal(err)
	}
	var want, got []string
	engines := map[string]bool{}
	for _, ev := range rec.Events {
		engines[ev.Engine] = true
		want = append(want, fmt.Sprintf("%s %s %d %d %d/%d/%d", ev.Engine, ev.Name, ev.Start, ev.End-ev.Start, ev.Net, ev.Layer, ev.Iter))
	}

	threads := map[int]string{}
	for _, ev := range evs {
		switch ev.Ph {
		case "X":
			got = append(got, fmt.Sprintf("%s %s %d %d %v/%v/%v", ev.Cat, ev.Name, ev.TS, ev.Dur, ev.Args["net"], ev.Args["layer"], ev.Args["iter"]))
		case "M":
			if ev.Name == "thread_name" {
				threads[ev.TID] = ev.Args["name"].(string)
			}
		}
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("exported X events (%d) differ from the recorder's (%d)", len(got), len(want))
	}
	named := map[string]bool{}
	for _, name := range threads {
		named[name] = true
	}
	if !reflect.DeepEqual(named, engines) {
		t.Errorf("thread_name records %v, want one per engine %v", threads, engines)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	if err := run("nonsense", "rr", 1, 60, "", 0); err == nil {
		t.Error("bad mix accepted")
	}
	if err := run("MN/GNMT", "warp-drive", 1, 60, "", 0); err == nil {
		t.Error("bad scheduler accepted")
	}
}

func TestAllTraceSchedulers(t *testing.T) {
	for _, s := range []string{"fifo", "rr", "greedy", "sjf", "aimt-pf", "aimt-merge", "aimt"} {
		if err := run("MN/GNMT", s, 1, 40, "", 0); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
}
