package metrics

import (
	"testing"

	"aimt/internal/sim"
)

// TestEmptyInputGuards sweeps the derived-metric helpers with empty or
// zero-valued inputs: none may panic and all must return zeros.
func TestEmptyInputGuards(t *testing.T) {
	empty := &sim.Result{}
	if Speedup(empty, empty) != 0 {
		t.Error("Speedup on empty results != 0")
	}
	if GeoMean(nil) != 0 {
		t.Error("GeoMean(nil) != 0")
	}
	if STP(nil, empty) != 0 {
		t.Error("STP with no networks != 0")
	}
	if ANTT(nil, empty) != 0 {
		t.Error("ANTT with no networks != 0")
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) != 0")
	}
	if got := Latencies(empty); len(got) != 0 {
		t.Errorf("Latencies(empty) = %v, want empty", got)
	}
}
