package main

import (
	"sort"
	"sync"
	"time"

	"aimt/internal/arch"
	"aimt/internal/cluster"
	"aimt/internal/hdr"
	"aimt/internal/rtrace"
	"aimt/internal/serve"
	"aimt/internal/sim"
)

// span is one timed call the benchmark made into a layer, or one
// simulation observed through the scheduler wrapper. Times are
// nanoseconds since the probe's base instant; Parent 0 is the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// probe records the benchmark's view of one traced job: spans around
// every call the benchmark makes into a layer, plus the wrappers it
// hands the program at the layer seams (scheduler, routing policy,
// engine tracer). A nil *probe is the untraced path: every method is
// a no-op and no wrapper is installed.
type probe struct {
	label string
	base  time.Time
	clock int64 // cost of one clock read, subtracted from each timed call

	mu     sync.Mutex
	spans  []span
	scheds []*schedProbe
	pols   []*policyProbe
	counts map[string]float64
}

func newProbe(label string, base time.Time, clock int64) *probe {
	return &probe{label: label, base: base, clock: clock, counts: map[string]float64{}}
}

// calibrateClock returns the median cost of one clock read: the gap
// between two back-to-back reads.
func calibrateClock(base time.Time) int64 {
	d := make([]int64, 2001)
	for i := range d {
		t0 := time.Since(base)
		t1 := time.Since(base)
		d[i] = int64(t1 - t0)
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[len(d)/2]
}

func (p *probe) now() int64 { return int64(time.Since(p.base)) }

// elapsed is a timed call's duration net of one clock read.
func (p *probe) elapsed(t0, t1 int64) int64 {
	if d := t1 - t0 - p.clock; d > 0 {
		return d
	}
	return 0
}

// begin opens a span and returns its id (0 on the untraced path).
func (p *probe) begin(name string, parent int) int {
	if p == nil {
		return 0
	}
	t := p.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.spans = append(p.spans, span{ID: len(p.spans) + 1, Parent: parent, Name: name, Start: t, End: t})
	return len(p.spans)
}

// end closes the span begin returned.
func (p *probe) end(id int) {
	if p == nil || id == 0 {
		return
	}
	t := p.now()
	p.mu.Lock()
	p.spans[id-1].End = t
	p.mu.Unlock()
}

// add bumps a named layer counter.
func (p *probe) add(name string, v float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.counts[name] += v
	p.mu.Unlock()
}

// spec wraps a scheduler spec so that every scheduler it builds is a
// schedProbe whose simulation becomes a child span of parent.
func (p *probe) spec(spec serve.SchedulerSpec, parent int) serve.SchedulerSpec {
	if p == nil {
		return spec
	}
	return serve.SchedulerSpec{Name: spec.Name, New: func(cfg arch.Config, s *serve.Stream) sim.Scheduler {
		sp := &schedProbe{p: p, parent: parent, rng: 1, start: p.now()}
		sp.inner = spec.New(cfg, s)
		sp.last = sp.start
		p.mu.Lock()
		p.scheds = append(p.scheds, sp)
		p.mu.Unlock()
		return sp
	}}
}

// policy wraps a routing policy in a policyProbe.
func (p *probe) policy(pol cluster.Policy) cluster.Policy {
	if p == nil {
		return pol
	}
	pp := &policyProbe{inner: pol, p: p, rng: 1}
	p.mu.Lock()
	p.pols = append(p.pols, pp)
	p.mu.Unlock()
	return pp
}

// sampleEvery is the mean interval, in calls, between timed calls of a
// scheduler or policy wrapper. Reading the clock costs more than a
// cheap pick, so the wrappers time a random 1-in-sampleEvery subset of
// calls (every call is counted) and scale the timed total up.
const sampleEvery = 16

// sampler picks the calls a wrapper times: a xorshift stream, so the
// choice cannot line up with any period in the engine's call pattern.
type sampler uint64

func (s *sampler) hit() bool {
	x := uint64(*s)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = sampler(x)
	return x%sampleEvery == 0
}

// timing accumulates one kind of call: every call is counted, the
// sampled ones are timed.
type timing struct {
	calls, sampled, ns int64
}

// ms is the estimated total time of all calls.
func (t timing) ms() float64 {
	if t.sampled == 0 {
		return 0
	}
	return float64(t.ns) * float64(t.calls) / float64(t.sampled) / 1e6
}

// schedProbe times the calls the engine makes into one scheduler. It
// forwards the optional interfaces the engine and the lookahead
// scheduler probe for, so wrapping never changes a schedule.
type schedProbe struct {
	inner  sim.Scheduler
	p      *probe
	parent int
	rng    sampler

	// start is when the scheduler was built (the simulation starts
	// right after); last is when its last timed callback returned.
	start, last int64

	mb, cb, hooks timing
	mbIdle        int64
	mbHist        hdr.Histogram
}

func (s *schedProbe) Name() string { return s.inner.Name() }

// timed runs f, timing it when the sampler picks this call.
func (s *schedProbe) timed(t *timing, f func()) int64 {
	t.calls++
	if !s.rng.hit() {
		f()
		return -1
	}
	t0 := s.p.now()
	f()
	t1 := s.p.now()
	d := s.p.elapsed(t0, t1)
	t.sampled++
	t.ns += d
	s.last = t1
	return d
}

func (s *schedProbe) PickMB(v *sim.View) (r sim.MBRef, ok bool) {
	if d := s.timed(&s.mb, func() { r, ok = s.inner.PickMB(v) }); d >= 0 {
		s.mbHist.Record(arch.Cycles(d))
	}
	if !ok {
		s.mbIdle++
	}
	return r, ok
}

func (s *schedProbe) PickCB(v *sim.View) (r sim.CBRef, ok bool) {
	s.timed(&s.cb, func() { r, ok = s.inner.PickCB(v) })
	return r, ok
}

func (s *schedProbe) OnMBDone(v *sim.View, r sim.MBRef) {
	s.timed(&s.hooks, func() { s.inner.OnMBDone(v, r) })
}

func (s *schedProbe) OnCBStart(v *sim.View, r sim.CBRef) {
	s.timed(&s.hooks, func() { s.inner.OnCBStart(v, r) })
}

func (s *schedProbe) OnCBDone(v *sim.View, r sim.CBRef) {
	s.timed(&s.hooks, func() { s.inner.OnCBDone(v, r) })
}

func (s *schedProbe) OnCBSplit(v *sim.View, r sim.CBRef, remaining arch.Cycles) {
	s.timed(&s.hooks, func() { s.inner.OnCBSplit(v, r, remaining) })
}

// AttachEngine forwards sim.EngineAware.
func (s *schedProbe) AttachEngine(e *sim.Engine) {
	if ea, ok := s.inner.(sim.EngineAware); ok {
		ea.AttachEngine(e)
	}
}

// SaveState forwards sim.StatefulScheduler; a stateless inner
// scheduler saves nothing, exactly as if it were unwrapped.
func (s *schedProbe) SaveState(prev any) any {
	if ss, ok := s.inner.(sim.StatefulScheduler); ok {
		return ss.SaveState(prev)
	}
	return nil
}

// RestoreState forwards sim.StatefulScheduler.
func (s *schedProbe) RestoreState(st any) {
	if ss, ok := s.inner.(sim.StatefulScheduler); ok {
		ss.RestoreState(st)
	}
}

// ForceMB forwards the issue-order notification the lookahead
// scheduler sends to the policy it wraps.
func (s *schedProbe) ForceMB(v *sim.View, r sim.MBRef) {
	if f, ok := s.inner.(interface{ ForceMB(*sim.View, sim.MBRef) }); ok {
		f.ForceMB(v, r)
	}
}

// sampled is the number of timed callbacks, each of which leaves one
// clock read inside the engine's own time.
func (s *schedProbe) sampled() int64 { return s.mb.sampled + s.cb.sampled + s.hooks.sampled }

// policyProbe times the routing decisions of one dispatch pass.
type policyProbe struct {
	inner cluster.Policy
	p     *probe
	rng   sampler
	picks timing
	hist  hdr.Histogram
}

func (q *policyProbe) Name() string { return q.inner.Name() }

func (q *policyProbe) Pick(v *cluster.View, r cluster.Request) int {
	q.picks.calls++
	if !q.rng.hit() {
		return q.inner.Pick(v, r)
	}
	t0 := q.p.now()
	c := q.inner.Pick(v, r)
	d := q.p.elapsed(t0, q.p.now())
	q.picks.sampled++
	q.picks.ns += d
	q.hist.Record(arch.Cycles(d))
	return c
}

// countingTracer forwards engine events to a request-span collector
// and counts them.
type countingTracer struct {
	col *rtrace.Collector
	n   int64
}

func (t *countingTracer) Event(engine, name string, net, layer, iter int, start, end arch.Cycles) {
	t.n++
	t.col.Event(engine, name, net, layer, iter, start, end)
}

// simSpans turns the scheduler wrappers into one span per simulation.
func (p *probe) simSpans() []span {
	out := make([]span, 0, len(p.scheds))
	for i, s := range p.scheds {
		out = append(out, span{
			ID:     len(p.spans) + i + 1,
			Parent: s.parent,
			Name:   "sim.Run",
			Detail: s.Name(),
			Start:  s.start,
			End:    s.last,
		})
	}
	return out
}
