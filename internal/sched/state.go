package sched

import (
	"aimt/internal/arch"
	"aimt/internal/sim"
)

// This file implements sim.StatefulScheduler for every baseline whose
// decision state must travel with engine snapshots: the issue-order
// compute queue (base), the round-robin rotation pointer (RR),
// PREMA's token economy and EDF's live deadline list. The state values
// are reused across SaveState calls, so a speculative scheduler
// snapshotting at steady state allocates nothing.

// baseState captures base's issue-order compute queue.
type baseState struct {
	q []sim.CBRef
}

// SaveState implements sim.StatefulScheduler.
func (b *base) SaveState(prev any) any {
	st, _ := prev.(*baseState)
	if st == nil {
		st = &baseState{}
	}
	st.q = append(st.q[:0], b.q...)
	return st
}

// RestoreState implements sim.StatefulScheduler.
func (b *base) RestoreState(stAny any) {
	st := stAny.(*baseState)
	b.q = append(b.q[:0], st.q...)
}

// rrState adds the rotation pointer to the base queue.
type rrState struct {
	q    []sim.CBRef
	next int
}

// SaveState implements sim.StatefulScheduler.
func (r *RR) SaveState(prev any) any {
	st, _ := prev.(*rrState)
	if st == nil {
		st = &rrState{}
	}
	st.q = append(st.q[:0], r.q...)
	st.next = r.next
	return st
}

// RestoreState implements sim.StatefulScheduler.
func (r *RR) RestoreState(stAny any) {
	st := stAny.(*rrState)
	r.q = append(r.q[:0], st.q...)
	r.next = st.next
}

// premaState captures PREMA's token economy alongside the base queue.
type premaState struct {
	q          []sim.CBRef
	active     int
	hasTokens  bool
	tokens     []float64
	lastUpdate arch.Cycles
}

// SaveState implements sim.StatefulScheduler.
func (p *PREMA) SaveState(prev any) any {
	st, _ := prev.(*premaState)
	if st == nil {
		st = &premaState{}
	}
	st.q = append(st.q[:0], p.q...)
	st.active = p.active
	st.hasTokens = p.tokens != nil
	st.tokens = append(st.tokens[:0], p.tokens...)
	st.lastUpdate = p.lastUpdate
	return st
}

// RestoreState implements sim.StatefulScheduler.
func (p *PREMA) RestoreState(stAny any) {
	st := stAny.(*premaState)
	p.q = append(p.q[:0], st.q...)
	p.active = st.active
	if st.hasTokens {
		p.tokens = append(p.tokens[:0], st.tokens...)
	} else {
		p.tokens = nil // lazily allocated on first accrue; keep it so
	}
	p.lastUpdate = st.lastUpdate
}

// edfState captures EDF's live deadline list and its coverage.
type edfState struct {
	live    []int32
	covered int
}

// SaveState implements sim.StatefulScheduler.
func (e *EDF) SaveState(prev any) any {
	st, _ := prev.(*edfState)
	if st == nil {
		st = &edfState{}
	}
	st.live = append(st.live[:0], e.live...)
	st.covered = e.covered
	return st
}

// RestoreState implements sim.StatefulScheduler.
func (e *EDF) RestoreState(stAny any) {
	st := stAny.(*edfState)
	e.live = append(e.live[:0], st.live...)
	e.covered = st.covered
}
