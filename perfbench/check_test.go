package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// small sets a workload up with a short stream, so a job takes well
// under a second.
func small(t *testing.T, name string, requests int) *inputs {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.requests = requests
	in, err := w.setup(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func mustJob(t *testing.T, in *inputs, workers int, p *probe) *output {
	t.Helper()
	out, err := in.job(workers, p)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestJobsPassChecks runs every workload clean: the checks pass, and
// the modelled outputs do not depend on the worker count or tracing.
func TestJobsPassChecks(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in := small(t, w.name, 300)
			base := time.Now()
			ref := mustJob(t, in, 2, nil)
			if probs := check(ref); len(probs) > 0 {
				t.Fatalf("clean job failed its checks: %v", probs)
			}
			for _, tc := range []struct {
				workers int
				p       *probe
			}{{1, nil}, {2, newProbe("traced", base, calibrateClock(base))}} {
				out := mustJob(t, in, tc.workers, tc.p)
				if fingerprint(out) != fingerprint(ref) {
					t.Errorf("%d workers, traced %v: modelled outputs differ", tc.workers, tc.p != nil)
				}
				if modelledOf(out) != modelledOf(ref) {
					t.Errorf("%d workers, traced %v: modelled metrics differ", tc.workers, tc.p != nil)
				}
			}
		})
	}
}

// TestSabotagedFinishCaught decrements one finish cycle of a job whose
// reference ran clean: the job must count as failed.
func TestSabotagedFinishCaught(t *testing.T) {
	in := small(t, "steady-sweep", 300)
	b := &bench{w: in.w, c: config{workers: 2}}
	if !b.verify(mustJob(t, in, 2, nil), nil, 2, false) {
		t.Fatal("clean reference job failed")
	}
	out := mustJob(t, in, 2, nil)
	out.runs[5].res.NetFinish[17]--
	if b.verify(out, nil, 2, false) || b.failed != 1 || b.attempted != 2 {
		t.Fatalf("decremented finish not caught: %d of %d jobs failed", b.failed, b.attempted)
	}
}

// TestFinishBeforeArrivalCaught moves one finish before its arrival:
// the output checks alone must catch it, with no reference to compare.
func TestFinishBeforeArrivalCaught(t *testing.T) {
	in := small(t, "flash-crowd", 300)
	out := mustJob(t, in, 2, nil)
	r := out.runs[0].res
	r.NetFinish[3] = r.NetArrive[3] - 1
	if len(check(out)) == 0 {
		t.Fatal("finish before arrival not caught")
	}
}

// TestDroppedSpanSegmentCaught drops one segment of one request span
// of the traced fleet: its segments no longer sum to its latency.
func TestDroppedSpanSegmentCaught(t *testing.T) {
	in := small(t, "fleet-traced", 300)
	out := mustJob(t, in, 2, nil)
	if probs := check(out); len(probs) > 0 {
		t.Fatalf("clean job failed its checks: %v", probs)
	}
	for i := range out.spans {
		for j := range out.spans[i].Entries {
			if e := &out.spans[i].Entries[j]; len(e.Segments) > 1 {
				e.Segments = e.Segments[1:]
				if len(check(out)) == 0 {
					t.Fatal("dropped span segment not caught")
				}
				return
			}
		}
	}
	t.Fatal("no span entry with more than one segment")
}

// TestDroppedBlockCaught removes one completed memory block from a
// chip's count: block conservation must catch it.
func TestDroppedBlockCaught(t *testing.T) {
	in := small(t, "fleet-predictive", 300)
	out := mustJob(t, in, 2, nil)
	out.runs[0].res.MBCount--
	if len(check(out)) == 0 {
		t.Fatal("missing memory block not caught")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metric names and units the
// benchmark prints in step with the repository's BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind string
		want []struct{ Name, Unit string }
		got  []struct{ name, unit string }
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json lists %d", tc.kind, len(tc.got), len(tc.want))
			continue
		}
		for i, w := range tc.want {
			if g := tc.got[i]; g.name != w.Name || g.unit != w.Unit {
				t.Errorf("%s[%d]: benchmark prints %s (%s), BENCHMARK.json lists %s (%s)", tc.kind, i, g.name, g.unit, w.Name, w.Unit)
			}
		}
	}
}
