package sched

import (
	"cmp"
	"math"
	"slices"

	"aimt/internal/arch"
	"aimt/internal/sim"
)

// EDF is the deadline-aware serving scheduler: earliest-deadline-first
// request ordering layered on AI-MT's capacity-bounded MB prefetching
// (depth 0, SRAM-limited — the paper's "+ MB prefetching" mechanism).
// Both engines serve the unfinished network with the earliest deadline
// first: the HBM channel fetches its next memory block, and the PE
// complex runs its earliest ready compute block. Networks without a
// deadline (missing or non-positive entries) sort last, so on a
// deadline-free mix EDF degenerates to FIFO-with-prefetching and keeps
// the same block multiset and work-conservation properties as every
// other policy.
//
// Unlike PREMA's time multiplexing, EDF still co-executes blocks from
// different networks — when the urgent network's fetches are blocked
// on SRAM or dependencies, later-deadline work fills both engines.
type EDF struct {
	sim.NopHooks

	// deadlines holds per-network-instance absolute deadlines in
	// cycles, indexed like the net slice handed to sim.Run.
	deadlines []arch.Cycles

	// live lists by (deadline, net) the nets with a deadline below
	// covered — the top of the active window so far — that no pick has
	// found finished yet. Nets join as the window reaches them and leave
	// when a pick walks past them finished, so the list follows the
	// in-flight population. Both are decision state
	// (StatefulScheduler): after a restore, a dropped net may be
	// unfinished again.
	live    []int32
	covered int

	// cbs is a scratch buffer reused across picks.
	cbs []sim.CBRef
}

// NewEDF returns an earliest-deadline-first scheduler. deadlines[i] is
// network instance i's absolute deadline; nil or short slices mean no
// deadline for the missing entries.
func NewEDF(deadlines []arch.Cycles) *EDF {
	return &EDF{deadlines: deadlines}
}

// Name implements sim.Scheduler.
func (e *EDF) Name() string { return "EDF" }

func (e *EDF) deadline(net int) arch.Cycles {
	if net < len(e.deadlines) && e.deadlines[net] > 0 {
		return e.deadlines[net]
	}
	return math.MaxInt64
}

// PickMB implements sim.Scheduler: the issuable memory block of the
// earliest-deadline network, SRAM capacity permitting. Ties resolve to
// the lowest (net, layer), the candidate order.
func (e *EDF) PickMB(v *sim.View) (sim.MBRef, bool) {
	f := fits(v)
	first, ok := v.FirstMB(f, 0, v.NumNets())
	if !ok {
		return sim.MBRef{}, false
	}
	// first is the lowest net with an issuable block, so no net after it
	// in (deadline, net) order can win: walk the live list only up to its
	// deadline, dropping the finished nets met on the way.
	e.cover(v)
	dl := e.deadline(first.Net)
	pick, kept, i := first, 0, 0
	for ; i < len(e.live); i++ {
		net := e.live[i]
		if e.deadlines[net] >= dl {
			break
		}
		if v.NetFinished(int(net)) {
			continue
		}
		e.live[kept] = net
		kept++
		if m, ok := v.FirstMB(f, int(net), int(net)+1); ok {
			pick = m
			i++
			break
		}
	}
	if kept < i {
		e.live = append(e.live[:kept], e.live[i:]...)
	}
	return pick, true
}

// cover adds the nets below the top of the active window to live.
func (e *EDF) cover(v *sim.View) {
	act := v.ActiveNets()
	top := min(act[len(act)-1]+1, len(e.deadlines))
	if e.covered >= top {
		return
	}
	for ; e.covered < top; e.covered++ {
		if e.deadlines[e.covered] > 0 {
			e.live = append(e.live, int32(e.covered))
		}
	}
	slices.SortFunc(e.live, func(a, b int32) int {
		if c := cmp.Compare(e.deadlines[a], e.deadlines[b]); c != 0 {
			return c
		}
		return int(a - b)
	})
}

// PickCB implements sim.Scheduler: the ready compute block of the
// earliest-deadline network. With nothing ready the PE idles until the
// next event (a completed fetch re-polls the scheduler immediately, so
// no start is delayed).
func (e *EDF) PickCB(v *sim.View) (sim.CBRef, bool) {
	e.cbs = v.ReadyCBs(e.cbs[:0])
	best, found := sim.CBRef{}, false
	var bestDL arch.Cycles
	for _, c := range e.cbs {
		if dl := e.deadline(c.Net); !found || dl < bestDL {
			best, bestDL, found = c, dl, true
		}
	}
	return best, found
}
