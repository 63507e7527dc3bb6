package rtrace_test

import (
	"testing"

	"aimt/internal/arch"
	"aimt/internal/cluster"
	"aimt/internal/core"
	"aimt/internal/rtrace"
	"aimt/internal/serve"
	"aimt/internal/sim"
	"aimt/internal/workload"
)

// TestCollectedIntervalsOrdered checks, on real runs, the order the
// attribution sweep takes without sorting: per instance and per kind,
// the collected intervals are in time order and disjoint, in each
// chip's collector and in the merged one. It covers every scheduler in
// the table over the default, transformer and two-band priority mixes
// on 1 and 4 chips, and AI-MT with every mechanism on the paper mixes,
// whose runs split compute blocks.
func TestCollectedIntervalsOrdered(t *testing.T) {
	cfg := arch.PaperConfig()
	route, err := cluster.ByName("least-work")
	if err != nil {
		t.Fatal(err)
	}
	prio := serve.DefaultClasses()
	prio[0].Priority = 1
	for _, mix := range []struct {
		name    string
		classes []serve.Class
	}{
		{"default", serve.DefaultClasses()},
		{"transformer", serve.TransformerClasses()},
		{"priorities", prio},
	} {
		for _, chips := range []int{1, 4} {
			opts := serve.StreamOptions{Requests: 60, Seed: 3}
			gaps, err := serve.LoadGaps(cfg, mix.classes, opts, chips, []float64{1.5})
			if err != nil {
				t.Fatal(err)
			}
			opts.MeanGap = gaps[0]
			s, err := serve.NewStream(cfg, mix.classes, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range serve.Schedulers() {
				cols := make([]*rtrace.Collector, chips)
				res, err := cluster.Serve(cfg, s, spec, route.New(), cluster.Options{
					Chips: chips,
					EngineTrace: func(c int) sim.Tracer {
						cols[c] = rtrace.NewCollector(len(s.Nets))
						return cols[c]
					},
				})
				if err != nil {
					t.Fatalf("%s %s x%d: %v", mix.name, spec.Name, chips, err)
				}
				perChip := make([][]int, chips)
				for i, c := range res.Assignment {
					if c >= 0 {
						perChip[c] = append(perChip[c], i)
					}
				}
				merged := rtrace.NewCollector(len(s.Nets))
				for c, col := range cols {
					if col == nil {
						continue
					}
					if err := rtrace.CheckOrdered(col); err != nil {
						t.Errorf("%s %s x%d, chip %d: %v", mix.name, spec.Name, chips, c, err)
					}
					merged.Merge(col, perChip[c])
				}
				if err := rtrace.CheckOrdered(merged); err != nil {
					t.Errorf("%s %s x%d, merged: %v", mix.name, spec.Name, chips, err)
				}
				if rtrace.Records(merged) == 0 {
					t.Errorf("%s %s x%d: no intervals collected", mix.name, spec.Name, chips)
				}
			}
		}
	}

	splits := 0
	for _, ms := range workload.PaperMixes() {
		mix, err := workload.Build(cfg, ms, workload.BuildOptions{Batch: 8})
		if err != nil {
			t.Fatal(err)
		}
		col := rtrace.NewCollector(len(mix.Nets))
		res, err := sim.Run(cfg, mix.Nets, core.New(cfg, core.All()), sim.Options{Tracer: col})
		if err != nil {
			t.Fatalf("%s: %v", mix.Name, err)
		}
		splits += res.Splits
		if err := rtrace.CheckOrdered(col); err != nil {
			t.Errorf("%s: %v", mix.Name, err)
		}
	}
	if splits == 0 {
		t.Error("no paper-mix run split a compute block: the split halts went unchecked")
	}
}
