package runstore

import (
	"fmt"
	"io"
	"strings"
)

// Diff verdicts.
const (
	VerdictOK          = "ok"
	VerdictRegression  = "regression"
	VerdictImprovement = "improvement"
	VerdictMissing     = "missing" // in old, absent from new
	VerdictAdded       = "added"   // in new, absent from old
	VerdictInfo        = "info"    // unit has no regression direction
)

// Direction returns how a metric unit reads: -1 when lower is better
// (latency, allocations), +1 when higher is better (throughput), 0
// when the unit carries no regression direction (utilization, counts).
func Direction(unit string) int {
	switch unit {
	case "ns/op", "B/op", "allocs/op", "cycles", "rate":
		return -1
	case "blocks/s", "req/Mcyc", "tok/Mcyc":
		return 1
	default:
		return 0
	}
}

// DiffRow is one metric compared across two runs.
type DiffRow struct {
	Metric   string
	Unit     string
	Old, New float64
	// Ratio is New/Old when both sides exist and Old is nonzero.
	Ratio float64
	// Verdict is one of the Verdict* constants.
	Verdict string
}

// Diff is a metric-by-metric comparison of two runs against a noise
// threshold: only ratios beyond it (in the unit's bad direction)
// count as regressions, so runner-to-runner variance doesn't flag.
type Diff struct {
	OldID, NewID string
	Noise        float64
	Rows         []DiffRow
}

// Regressions returns the rows that regressed beyond the noise
// threshold.
func (d *Diff) Regressions() []DiffRow {
	var out []DiffRow
	for _, r := range d.Rows {
		if r.Verdict == VerdictRegression || r.Verdict == VerdictMissing {
			out = append(out, r)
		}
	}
	return out
}

// Regressed reports whether any metric regressed (a metric vanishing
// from the new run counts: losing a gated benchmark is a regression).
func (d *Diff) Regressed() bool { return len(d.Regressions()) > 0 }

// DiffRuns compares new against old. noise is the multiplicative
// tolerance (1.25 = 25% drift allowed); values below 1 mean none.
// Rows follow old's metric order, then new-only metrics in new's
// order. A metric whose old value is zero has no ratio: any move away
// from zero reads as a regression or improvement by its unit's
// direction regardless of noise, and as info for directionless units.
func DiffRuns(old, new Run, noise float64) *Diff {
	if noise < 1 {
		noise = 1
	}
	d := &Diff{OldID: old.ID, NewID: new.ID, Noise: noise}
	newByName := map[string]Metric{}
	for _, m := range new.Metrics {
		newByName[m.Name] = m
	}
	seen := map[string]bool{}
	for _, om := range old.Metrics {
		seen[om.Name] = true
		nm, ok := newByName[om.Name]
		if !ok {
			d.Rows = append(d.Rows, DiffRow{Metric: om.Name, Unit: om.Unit, Old: om.Value, Verdict: VerdictMissing})
			continue
		}
		row := DiffRow{Metric: om.Name, Unit: om.Unit, Old: om.Value, New: nm.Value}
		switch {
		case om.Value == 0:
			// No ratio exists, but leaving zero in either direction is
			// still a change: a zero-allocation benchmark that starts
			// allocating regressed at any noise level.
			switch dir := Direction(om.Unit); {
			case nm.Value == 0:
				row.Verdict = VerdictOK
				row.Ratio = 1
			case dir < 0 && nm.Value > 0, dir > 0 && nm.Value < 0:
				row.Verdict = VerdictRegression
			case dir != 0:
				row.Verdict = VerdictImprovement
			default:
				row.Verdict = VerdictInfo
			}
		default:
			row.Ratio = nm.Value / om.Value
			switch dir := Direction(om.Unit); {
			case dir < 0 && row.Ratio > noise:
				row.Verdict = VerdictRegression
			case dir < 0 && row.Ratio < 1/noise:
				row.Verdict = VerdictImprovement
			case dir > 0 && row.Ratio < 1/noise:
				row.Verdict = VerdictRegression
			case dir > 0 && row.Ratio > noise:
				row.Verdict = VerdictImprovement
			case dir == 0:
				row.Verdict = VerdictInfo
			default:
				row.Verdict = VerdictOK
			}
		}
		d.Rows = append(d.Rows, row)
	}
	for _, nm := range new.Metrics {
		if !seen[nm.Name] {
			d.Rows = append(d.Rows, DiffRow{Metric: nm.Name, Unit: nm.Unit, New: nm.Value, Verdict: VerdictAdded})
		}
	}
	return d
}

// WriteText renders the diff as an aligned table plus a one-line
// summary — the structured artifact `make benchcheck` and
// `make bench-compare` print.
func (d *Diff) WriteText(w io.Writer) error {
	wide := len("metric")
	for _, r := range d.Rows {
		if len(r.Metric) > wide {
			wide = len(r.Metric)
		}
	}
	if _, err := fmt.Fprintf(w, "diff %s (old) vs %s (new), noise %.2fx\n", d.OldID, d.NewID, d.Noise); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %-*s %14s %14s %8s  %s\n", wide, "metric", "old", "new", "ratio", "verdict"); err != nil {
		return err
	}
	for _, r := range d.Rows {
		ratio := "-"
		if r.Ratio != 0 {
			ratio = fmt.Sprintf("%.2fx", r.Ratio)
		}
		oldV, newV := num(r.Old), num(r.New)
		switch r.Verdict {
		case VerdictAdded:
			oldV = "-"
		case VerdictMissing:
			newV = "-"
		}
		mark := ""
		switch r.Verdict {
		case VerdictRegression, VerdictMissing:
			mark = "  <-- REGRESSION"
		case VerdictImprovement:
			mark = "  (better)"
		}
		if _, err := fmt.Fprintf(w, "  %-*s %14s %14s %8s  %s%s\n",
			wide, r.Metric, oldV, newV, ratio, r.Verdict, mark); err != nil {
			return err
		}
	}
	regs := d.Regressions()
	if len(regs) == 0 {
		_, err := fmt.Fprintf(w, "no regressions beyond %.2fx noise (%d metrics)\n", d.Noise, len(d.Rows))
		return err
	}
	names := make([]string, len(regs))
	for i, r := range regs {
		names[i] = r.Metric
	}
	_, err := fmt.Fprintf(w, "%d regression(s) beyond %.2fx noise: %s\n", len(regs), d.Noise, strings.Join(names, ", "))
	return err
}

// num renders a metric value compactly: integers without a fraction,
// everything else with two decimals.
func num(v float64) string {
	if v == float64(int64(v)) && v < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}
