package sched

import (
	"fmt"
	"strings"

	"aimt/internal/arch"
	"aimt/internal/core"
	"aimt/internal/sim"
)

// Workload is what a scheduler constructor may read about the network
// instances it schedules, each slice indexed like the engine's
// networks (nil means none): memory-intensity flags (ComputeFirst+PF),
// absolute deadlines (EDF, AI-MT+EDF) and preemption priorities
// (AI-MT+Prio). A constructor calls only the methods it needs, so an
// input that costs work to derive is built only for the entries that
// read it.
type Workload interface {
	MemHeavy() []bool
	Deadlines() []arch.Cycles
	Priorities() []int
}

// Mix is the Workload of a static co-location mix: its
// memory-intensity flags, no deadlines and no priorities.
type Mix []bool

func (m Mix) MemHeavy() []bool       { return m }
func (Mix) Deadlines() []arch.Cycles { return nil }
func (Mix) Priorities() []int        { return nil }

// Entry is one row of the scheduler table: the display name reports
// and goldens print, the extra command-line names that select it
// (matching ignores case), whether it is opt-in — out of the standard
// serving comparison set, run only when named — and a constructor.
// Schedulers carry per-run state, so every run needs its own instance.
type Entry struct {
	Name    string
	Aliases []string
	OptIn   bool
	New     func(cfg arch.Config, w Workload) sim.Scheduler
}

// table lists every scheduler in comparison order: the network-serial
// and sub-layer baselines, PREMA, the AI-MT mechanism ladder and its
// variants, deadline-aware EDF, then speculative lookahead. The
// standard entries are FIFO, PREMA, AI-MT and EDF, in that order.
var table = []Entry{
	{Name: "FIFO", New: func(arch.Config, Workload) sim.Scheduler { return NewFIFO() }},
	{Name: "SerialFIFO", OptIn: true, New: func(arch.Config, Workload) sim.Scheduler { return NewSerialFIFO() }},
	{Name: "RR", OptIn: true, New: func(arch.Config, Workload) sim.Scheduler { return NewRR() }},
	{Name: "Greedy", OptIn: true, New: func(arch.Config, Workload) sim.Scheduler { return NewGreedy() }},
	{Name: "Greedy+PF", OptIn: true, New: func(arch.Config, Workload) sim.Scheduler { return NewGreedyPrefetch() }},
	{Name: "SJF", OptIn: true, New: func(arch.Config, Workload) sim.Scheduler { return NewSJF() }},
	{Name: "ComputeFirst+PF", Aliases: []string{"compute-first"}, OptIn: true,
		New: func(_ arch.Config, w Workload) sim.Scheduler { return NewComputeFirst(w.MemHeavy()) }},
	{Name: "PREMA", New: func(arch.Config, Workload) sim.Scheduler { return NewPREMA(nil) }},
	{Name: "AI-MT(PF)", Aliases: []string{"aimt-pf"}, OptIn: true,
		New: func(cfg arch.Config, _ Workload) sim.Scheduler { return core.New(cfg, core.Prefetch()) }},
	{Name: "AI-MT(PF+Merge)", Aliases: []string{"aimt-merge"}, OptIn: true,
		New: func(cfg arch.Config, _ Workload) sim.Scheduler { return core.New(cfg, core.PrefetchMerge()) }},
	{Name: "AI-MT", Aliases: []string{"aimt-all", "aimt"},
		New: func(cfg arch.Config, _ Workload) sim.Scheduler { return core.New(cfg, core.All()) }},
	{Name: "AI-MT+EDF", OptIn: true,
		New: func(cfg arch.Config, w Workload) sim.Scheduler {
			return core.New(cfg, core.All()).SetDeadlines(w.Deadlines())
		}},
	// Class priorities drive cross-request preemption; uniform
	// priorities make it bit-identical to AI-MT.
	{Name: "AI-MT+Prio", OptIn: true,
		New: func(cfg arch.Config, w Workload) sim.Scheduler {
			return core.New(cfg, core.All()).SetPreemptPriorities(w.Priorities())
		}},
	{Name: "EDF", New: func(_ arch.Config, w Workload) sim.Scheduler { return NewEDF(w.Deadlines()) }},
	// Speculation multiplies simulated cycles by the number of forks,
	// so lookahead is opt-in.
	{Name: "Lookahead", OptIn: true,
		New: func(cfg arch.Config, _ Workload) sim.Scheduler { return NewLookahead(core.New(cfg, core.All()), 0) }},
}

// Table returns every scheduler entry in comparison order.
func Table() []Entry { return append([]Entry(nil), table...) }

// Lookup resolves a scheduler by display name or alias, ignoring case.
func Lookup(name string) (Entry, error) {
	for _, e := range table {
		if strings.EqualFold(e.Name, name) {
			return e, nil
		}
		for _, a := range e.Aliases {
			if strings.EqualFold(a, name) {
				return e, nil
			}
		}
	}
	return Entry{}, fmt.Errorf("unknown scheduler %q", name)
}
