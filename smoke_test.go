package aimt

import (
	"testing"

	"aimt/internal/sched"
)

// TestSmokeEndToEnd compiles a two-network mix and runs it under every
// scheduler, checking completion and basic sanity. It is the fastest
// whole-stack check; the per-package suites cover details.
func TestSmokeEndToEnd(t *testing.T) {
	cfg := PaperConfig()
	rn50, err := Compile(ResNet50(), cfg, 1)
	if err != nil {
		t.Fatalf("compile ResNet50: %v", err)
	}
	gnmt, err := Compile(GNMT(), cfg, 1)
	if err != nil {
		t.Fatalf("compile GNMT: %v", err)
	}
	nets := []*Compiled{rn50, gnmt}

	var fifoMakespan Cycles
	for _, e := range sched.Table() {
		s := e.New(cfg, sched.Mix{false, true})
		res, err := Run(cfg, nets, s, RunOptions{CheckInvariants: true})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		t.Logf("%-16s makespan=%-10d memU=%.2f peU=%.2f peak=%d splits=%d",
			s.Name(), res.Makespan, res.MemUtilization(), res.PEUtilization(),
			res.SRAMPeakBytes(), res.Splits)
		if res.Makespan <= 0 {
			t.Fatalf("%s: non-positive makespan", s.Name())
		}
		if u := res.MemUtilization(); u < 0 || u > 1 {
			t.Fatalf("%s: memory utilization %f out of range", s.Name(), u)
		}
		if u := res.PEUtilization(); u < 0 || u > 1 {
			t.Fatalf("%s: PE utilization %f out of range", s.Name(), u)
		}
		if s.Name() == "FIFO" {
			fifoMakespan = res.Makespan
		} else if fifoMakespan > 0 && s.Name() == "AI-MT(All)" {
			if res.Makespan > fifoMakespan {
				t.Errorf("AI-MT(All) slower than FIFO: %d > %d", res.Makespan, fifoMakespan)
			}
		}
	}
}
