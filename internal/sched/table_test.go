package sched

import (
	"strings"
	"testing"

	"aimt/internal/arch"
)

// countingWorkload records which inputs a constructor read.
type countingWorkload struct{ heavy, deadlines, prios int }

func (w *countingWorkload) MemHeavy() []bool         { w.heavy++; return nil }
func (w *countingWorkload) Deadlines() []arch.Cycles { w.deadlines++; return nil }
func (w *countingWorkload) Priorities() []int        { w.prios++; return nil }

// TestTable: every display name and alias resolves, in any case, to
// its own entry; unknown names are errors; and each constructor builds
// a scheduler while deriving only the workload inputs it uses, so the
// table adds no work to entries that ignore an input.
func TestTable(t *testing.T) {
	cfg := arch.PaperConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range Table() {
		for _, n := range append([]string{e.Name}, e.Aliases...) {
			if seen[strings.ToLower(n)] {
				t.Errorf("name %q appears twice in the table", n)
			}
			seen[strings.ToLower(n)] = true
			if got, err := Lookup(strings.ToLower(n)); err != nil || got.Name != e.Name {
				t.Errorf("Lookup(%q) = %q, %v; want %q", n, got.Name, err, e.Name)
			}
		}
		var w, want countingWorkload
		switch e.Name {
		case "ComputeFirst+PF":
			want.heavy = 1
		case "EDF", "AI-MT+EDF":
			want.deadlines = 1
		case "AI-MT+Prio":
			want.prios = 1
		}
		if s := e.New(cfg, &w); s == nil || s.Name() == "" {
			t.Errorf("%s built no scheduler", e.Name)
		}
		if w != want {
			t.Errorf("%s read inputs %+v, want %+v", e.Name, w, want)
		}
	}
	if _, err := Lookup("bogus"); err == nil {
		t.Error("Lookup accepted an unknown scheduler")
	}
}
