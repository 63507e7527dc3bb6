package sched

import (
	"aimt/internal/arch"
	"aimt/internal/sim"
)

// Lookahead wraps another scheduler and turns its contested memory-
// block choices into true forward simulations: whenever both a
// memory-intensive (capacity-critical) candidate and a compute-heavy
// candidate are issuable, it snapshots the engine, forces each branch
// in turn, steps the simulation Horizon cycles ahead under the inner
// policy, and commits whichever choice kept the machine busier
// (Engine.Progress: HBM + PE busy cycles). Everything else — compute
// picks, hooks, uncontested fetches — delegates to the inner policy,
// so on ties and when speculation is unavailable Lookahead is exactly
// its inner scheduler.
//
// The speculative runs execute on the very engine being scheduled:
// the engine hands itself over through sim.EngineAware at run start,
// speculation mutes observability (Engine.Quiesce) so forked branches
// leave no trace, and sim.Snapshot/Restore rewind machine, checker
// and scheduler state, so a run with Lookahead still satisfies every
// machine invariant. Committed decisions are recorded through
// View.NoteLookahead (KindLookahead + aimt_sim_lookahead_total).
type Lookahead struct {
	inner sim.Scheduler

	// horizon is how far each forked branch runs, and also the
	// cooldown between speculations: after one commits (or ties), no
	// new fork happens for horizon cycles, which bounds speculation
	// overhead to a constant factor of the simulated cycles.
	horizon arch.Cycles

	eng      *sim.Engine
	snap     *sim.Snapshot
	nextSpec arch.Cycles

	// speculating marks that the engine is stepping a forked branch:
	// decisions inside the branch delegate straight to the inner
	// policy (no nested forks). forcing injects the branch's first,
	// contested pick.
	speculating bool
	forcing     bool
	forced      sim.MBRef

	mbs []sim.MBRef
}

// mbForcer is implemented by schedulers whose compute-block execution
// order is fixed at memory-block issue time (the baselines' shared
// issue-order queue). Lookahead notifies the inner policy whenever it
// returns a pick the policy did not make itself — both the injected
// first pick of a speculative branch and a committed winner — so the
// policy's bookkeeping tracks the machine.
type mbForcer interface {
	ForceMB(v *sim.View, r sim.MBRef)
}

// notePick informs the inner policy of an externally decided pick.
func (s *Lookahead) notePick(v *sim.View, r sim.MBRef) {
	if f, ok := s.inner.(mbForcer); ok {
		f.ForceMB(v, r)
	}
}

// NewLookahead returns a speculative lookahead scheduler over inner.
// horizon is how far ahead each contested branch is simulated;
// non-positive defaults to 4096 cycles. The cooldown between
// speculations is the horizon.
func NewLookahead(inner sim.Scheduler, horizon arch.Cycles) *Lookahead {
	if horizon <= 0 {
		horizon = 4096
	}
	return &Lookahead{inner: inner, horizon: horizon}
}

// Name implements sim.Scheduler.
func (s *Lookahead) Name() string { return "Lookahead(" + s.inner.Name() + ")" }

// AttachEngine implements sim.EngineAware: the engine hands itself to
// the scheduler at run start so PickMB can fork it.
func (s *Lookahead) AttachEngine(e *sim.Engine) {
	s.eng = e
	s.nextSpec = 0
	s.speculating = false
	s.forcing = false
}

// PickMB implements sim.Scheduler; see the type comment.
func (s *Lookahead) PickMB(v *sim.View) (sim.MBRef, bool) {
	if s.forcing {
		// First pick inside a forked branch: inject the contested
		// choice this branch explores.
		s.forcing = false
		s.notePick(v, s.forced)
		return s.forced, true
	}
	if s.speculating || s.eng == nil || v.Now() < s.nextSpec {
		return s.inner.PickMB(v)
	}

	// A decision is contested when both block classes are issuable
	// right now: fetching the capacity-critical block claims SRAM for
	// a long window, fetching the compute-heavy block builds PE
	// runway. The static heuristics disagree here; simulate instead.
	s.mbs = v.MBCandidates(s.mbs[:0])
	var memC, cmpC sim.MBRef
	var haveMem, haveCmp bool
	for _, m := range s.mbs {
		if !v.IsMBIssuable(m) {
			continue
		}
		if v.Layer(m.Net, m.Layer).MemoryIntensive() {
			if !haveMem {
				memC, haveMem = m, true
			}
		} else if !haveCmp {
			cmpC, haveCmp = m, true
		}
		if haveMem && haveCmp {
			break
		}
	}
	if !haveMem || !haveCmp {
		return s.inner.PickMB(v)
	}

	s.nextSpec = v.Now() + s.horizon
	unmute := s.eng.Quiesce()
	s.snap = s.eng.Snapshot(s.snap)
	limit := v.Now() + s.horizon
	memScore, okA := s.scoreBranch(memC, limit)
	cmpScore, okB := s.scoreBranch(cmpC, limit)
	unmute()
	if !okA || !okB {
		return s.inner.PickMB(v)
	}
	if memScore > cmpScore {
		v.NoteLookahead(memC, s.horizon, memScore-cmpScore)
		s.notePick(v, memC)
		return memC, true
	}
	if cmpScore > memScore {
		v.NoteLookahead(cmpC, s.horizon, cmpScore-memScore)
		s.notePick(v, cmpC)
		return cmpC, true
	}
	// Tie: the horizon cannot tell the branches apart; defer to the
	// inner policy so Lookahead never does worse than it.
	return s.inner.PickMB(v)
}

// scoreBranch forces m as the next fetch, steps the engine to limit
// under the inner policy, reads the accumulated busy cycles, and
// rewinds. ok=false means the branch errored (it is discarded and the
// decision falls back to the inner policy).
func (s *Lookahead) scoreBranch(m sim.MBRef, limit arch.Cycles) (score arch.Cycles, ok bool) {
	s.speculating = true
	s.forcing, s.forced = true, m
	_, err := s.eng.StepUntil(limit)
	score = s.eng.Progress()
	rerr := s.eng.Restore(s.snap)
	s.speculating = false
	s.forcing = false
	if err != nil || rerr != nil {
		return 0, false
	}
	return score, true
}

// PickCB implements sim.Scheduler by delegating to the inner policy.
func (s *Lookahead) PickCB(v *sim.View) (sim.CBRef, bool) { return s.inner.PickCB(v) }

// OnMBDone implements sim.Scheduler.
func (s *Lookahead) OnMBDone(v *sim.View, r sim.MBRef) { s.inner.OnMBDone(v, r) }

// OnCBStart implements sim.Scheduler.
func (s *Lookahead) OnCBStart(v *sim.View, r sim.CBRef) { s.inner.OnCBStart(v, r) }

// OnCBDone implements sim.Scheduler.
func (s *Lookahead) OnCBDone(v *sim.View, r sim.CBRef) { s.inner.OnCBDone(v, r) }

// OnCBSplit implements sim.Scheduler.
func (s *Lookahead) OnCBSplit(v *sim.View, r sim.CBRef, remaining arch.Cycles) {
	s.inner.OnCBSplit(v, r, remaining)
}

// lookaheadState captures the speculation cooldown alongside the inner
// policy's state, so engine snapshots rewind the whole stack.
type lookaheadState struct {
	nextSpec   arch.Cycles
	innerState any
}

// SaveState implements sim.StatefulScheduler.
func (s *Lookahead) SaveState(prev any) any {
	st, _ := prev.(*lookaheadState)
	if st == nil {
		st = &lookaheadState{}
	}
	st.nextSpec = s.nextSpec
	if ss, ok := s.inner.(sim.StatefulScheduler); ok {
		st.innerState = ss.SaveState(st.innerState)
	}
	return st
}

// RestoreState implements sim.StatefulScheduler.
func (s *Lookahead) RestoreState(stAny any) {
	st := stAny.(*lookaheadState)
	s.nextSpec = st.nextSpec
	if ss, ok := s.inner.(sim.StatefulScheduler); ok {
		ss.RestoreState(st.innerState)
	}
}
