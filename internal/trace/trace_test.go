package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"aimt/internal/arch"
)

func sample() *Recorder {
	r := &Recorder{}
	r.Event("mem", "MB:a", 0, 0, 0, 0, 10)
	r.Event("pe", "CB:a", 0, 0, 0, 10, 40)
	r.Event("mem", "MB:b", 1, 0, 0, 10, 30)
	r.Event("pe", "CB:b", 1, 0, 0, 40, 50)
	r.Event("host", "host-in", 1, -1, -1, 0, 5)
	return r
}

func TestRecorderCollects(t *testing.T) {
	r := sample()
	if len(r.Events) != 5 {
		t.Fatalf("events = %d", len(r.Events))
	}
	e := r.Events[1]
	if e.Engine != "pe" || e.Net != 0 || e.Start != 10 || e.End != 40 {
		t.Errorf("event = %+v", e)
	}
}

func TestChromeTraceRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTracks(&buf, sample().EngineTracks(1, "mix")); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var slices []map[string]any
	threads := map[string]float64{}
	processes := 0
	for _, e := range evs {
		switch e["ph"] {
		case "X":
			slices = append(slices, e)
		case "M":
			name := e["args"].(map[string]any)["name"].(string)
			switch e["name"] {
			case "thread_name":
				threads[name] = e["tid"].(float64)
			case "process_name":
				processes++
				if name != "mix" {
					t.Errorf("process name = %q, want mix", name)
				}
			}
		}
	}
	if len(slices) != 5 {
		t.Fatalf("X events = %d, want 5", len(slices))
	}
	first := slices[0]
	if first["name"] != "MB:a" || first["dur"] != float64(10) || first["pid"] != float64(1) {
		t.Errorf("first event = %v", first)
	}
	// Engines map to distinct tids, each named by one thread_name record.
	tids := map[float64]bool{}
	for _, e := range slices {
		tid := e["tid"].(float64)
		tids[tid] = true
		if threads[e["cat"].(string)] != tid {
			t.Errorf("event %v: tid not named %q (thread names %v)", e["name"], e["cat"], threads)
		}
	}
	if len(tids) != 3 || len(threads) != 3 || processes != 1 {
		t.Errorf("distinct tids = %d, thread names = %d, process names = %d; want 3, 3, 1", len(tids), len(threads), processes)
	}
}

func TestGanttRendersRows(t *testing.T) {
	g := sample().Gantt(50, 50)
	lines := strings.Split(strings.TrimRight(g, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("gantt lines = %d:\n%s", len(lines), g)
	}
	if !strings.HasPrefix(lines[1], "mem") || !strings.HasPrefix(lines[2], "pe") || !strings.HasPrefix(lines[3], "host") {
		t.Errorf("row order wrong:\n%s", g)
	}
	// mem row: net 0 occupies the first fifth, net 1 next.
	mem := lines[1][6:]
	if mem[0] != '0' {
		t.Errorf("mem row start = %q", mem[:10])
	}
	if !strings.Contains(mem, "1") {
		t.Errorf("mem row missing net 1: %q", mem)
	}
	// pe row has idle dots at the very start.
	pe := lines[2][6:]
	if pe[0] != '.' {
		t.Errorf("pe row start = %q, want idle", pe[:5])
	}
}

func TestGanttInfersMakespan(t *testing.T) {
	g := sample().Gantt(0, 40)
	if !strings.Contains(g, "cycles 0..50") {
		t.Errorf("inferred makespan missing: %q", strings.SplitN(g, "\n", 2)[0])
	}
	if sample().Gantt(0, 0) == "" {
		t.Error("default width produced empty chart")
	}
	empty := &Recorder{}
	if got := empty.Gantt(0, 10); got != "" {
		t.Errorf("empty recorder chart = %q", got)
	}
}

func TestGanttOverlapMarker(t *testing.T) {
	r := &Recorder{}
	// Two nets sharing one cell of the pe row.
	r.Event("pe", "CB", 0, 0, 0, 0, 10)
	r.Event("pe", "CB", 1, 0, 0, 5, 10)
	g := r.Gantt(10, 2)
	lines := strings.Split(g, "\n")
	pe := lines[2][6:]
	if !strings.Contains(pe, "*") {
		t.Errorf("overlapping nets not marked with '*': %q", pe)
	}
}

func TestGanttManyNetsWrapDigits(t *testing.T) {
	r := &Recorder{}
	r.Event("pe", "CB", 12, 0, 0, 0, 10) // net 12 renders as digit 2
	g := r.Gantt(10, 10)
	if !strings.Contains(g, "2") {
		t.Errorf("net index not rendered modulo 10:\n%s", g)
	}
}

func TestUtilizationSeries(t *testing.T) {
	r := sample()
	pts := r.UtilizationSeries(50, 10)
	if len(pts) != 5 {
		t.Fatalf("points = %d, want 5", len(pts))
	}
	// Window 0 (0-10): mem fully busy (MB:a), pe idle.
	if pts[0].Mem != 1.0 || pts[0].PE != 0.0 {
		t.Errorf("window 0 = %+v", pts[0])
	}
	// Window 1 (10-20): mem busy with MB:b, pe busy with CB:a.
	if pts[1].Mem != 1.0 || pts[1].PE != 1.0 {
		t.Errorf("window 1 = %+v", pts[1])
	}
	// Window 3 (30-40): mem idle, pe busy.
	if pts[3].Mem != 0.0 || pts[3].PE != 1.0 {
		t.Errorf("window 3 = %+v", pts[3])
	}
	for _, p := range pts {
		if p.Mem < 0 || p.Mem > 1 || p.PE < 0 || p.PE > 1 {
			t.Errorf("window %d out of range: %+v", p.Start, p)
		}
	}
	if got := r.UtilizationSeries(0, 10); got != nil {
		t.Error("zero makespan series != nil")
	}
	if got := r.UtilizationSeries(50, 0); got != nil {
		t.Error("zero window series != nil")
	}
}

func TestPartialWindowAccounting(t *testing.T) {
	r := &Recorder{}
	r.Event("pe", "CB", 0, 0, 0, 5, 15) // straddles two windows
	pts := r.UtilizationSeries(20, 10)
	if pts[0].PE != 0.5 || pts[1].PE != 0.5 {
		t.Errorf("straddling event split = %f/%f, want 0.5/0.5", pts[0].PE, pts[1].PE)
	}
}

func TestEventTypeFields(t *testing.T) {
	e := Event{Engine: "mem", Name: "MB:x", Net: 2, Layer: 3, Iter: 4, Start: arch.Cycles(1), End: arch.Cycles(9)}
	if e.End-e.Start != 8 {
		t.Error("cycle arithmetic broken")
	}
}
