// Package rtrace is the per-request span tracer: it turns the
// engine's occupancy events into an attributed span per served
// request, decomposing end-to-end latency cycle-exactly into named
// segments (idle-in-queue, hbm-bound, pe-bound, preempted-out, host).
//
// The pipeline has three pieces:
//
//   - Collector implements sim.Tracer structurally and appends every
//     occupancy interval to one flat log. It is attached per run (per
//     chip in a cluster) and merged, by reference, into stream
//     coordinates.
//   - Build folds a stream's metadata plus a finished sim.Result and
//     a Collector into []RequestSpan: one span per request, one entry
//     span per phase (prefill, each decode step), each partitioned
//     into segments that sum exactly to finish − arrival. It groups
//     the log by instance with one counting pass and labels each
//     window with a linear sweep over the time-ordered intervals.
//   - Store (store.go) retains bounded state across runs: worst-N
//     tail exemplars per class, a sampled ring of recent spans, and
//     running attribution aggregates.
//
// Attribution rule: within an entry's [effective arrival, finish)
// window every cycle gets exactly one label, chosen by priority
// pe-bound > host > preempted-out > hbm-bound, with idle-in-queue as
// the remainder. Because the labels partition the window, the
// reconciliation identity Σ segments = finish − arrival holds by
// construction, and chained entries telescope (each decode's
// effective arrival is its predecessor's finish) so request segments
// sum to last finish − head arrival.
package rtrace

import (
	"cmp"
	"slices"
	"strings"

	"aimt/internal/arch"
)

// Segment kinds, in canonical report order. Every attributed cycle
// carries exactly one of these labels.
const (
	// SegQueue is time the entry was ready but no engine was doing its
	// work: waiting for AVL_CB credit, for the PE array, or for its
	// turn in the memory-block schedule.
	SegQueue = "idle-in-queue"

	// SegHBM is time the HBM channel was fetching this entry's own
	// memory blocks while its PE work was stalled on them.
	SegHBM = "hbm-bound"

	// SegPE is time the PE array was executing this entry's compute
	// blocks.
	SegPE = "pe-bound"

	// SegPreempt is time between a split-halted compute block and its
	// resumption: the entry was preempted out by a higher-priority
	// competitor.
	SegPreempt = "preempted-out"

	// SegHost is PCIe transfer time for this entry's input and output.
	SegHost = "host"
)

// SegmentKinds lists every segment label in canonical report order.
var SegmentKinds = []string{SegQueue, SegHBM, SegPE, SegPreempt, SegHost}

// Segment is one attributed share of an entry or request window.
type Segment struct {
	Kind   string      `json:"kind"`
	Cycles arch.Cycles `json:"cycles"`
}

// Interval is one contiguous attributed slice of an entry's window,
// suitable for rendering as a waterfall bar or a Perfetto slice.
type Interval struct {
	Kind  string      `json:"kind"`
	Start arch.Cycles `json:"start"`
	End   arch.Cycles `json:"end"`
}

// EntrySpan is the attributed execution of one stream entry (one
// request phase): a single-shot request's whole service, a
// transformer prompt pass, or one decode iteration.
type EntrySpan struct {
	// Entry is the stream index of this phase.
	Entry int `json:"entry"`

	// Phase names the request phase ("single", "prefill", "decode").
	Phase string `json:"phase,omitempty"`

	// Arrive is the effective arrival: the stream arrival for a head
	// entry, the predecessor's finish for a chained decode step.
	Arrive arch.Cycles `json:"arrive"`

	// Finish is the completion cycle.
	Finish arch.Cycles `json:"finish"`

	// Segments partition [Arrive, Finish): they sum exactly to
	// Finish − Arrive. Zero-cycle kinds are omitted.
	Segments []Segment `json:"segments"`

	// Intervals is the same partition in time order, contiguous slices
	// covering [Arrive, Finish) exactly.
	Intervals []Interval `json:"intervals,omitempty"`
}

// RequestSpan is the end-to-end attributed trace of one request.
type RequestSpan struct {
	// Req is the request id (stream ReqOf value).
	Req int `json:"req"`

	// Run labels the sweep point that served the request, e.g.
	// "AI-MT@0.80" or "AI-MT/least-work".
	Run string `json:"run,omitempty"`

	// Class is the request class name.
	Class string `json:"class"`

	// Chip is the chip the dispatcher routed the request to (0 for
	// single-chip runs, -1 for shed requests).
	Chip int `json:"chip"`

	// ETA is the dispatcher's predicted completion cycle at routing
	// time (0 when no dispatcher estimate was recorded). For shed
	// requests it is the prediction that exceeded the deadline.
	ETA arch.Cycles `json:"eta,omitempty"`

	// Shed reports that admission control rejected the request; shed
	// spans have no entries and zero latency.
	Shed bool `json:"shed,omitempty"`

	// Arrive is the head entry's stream arrival cycle.
	Arrive arch.Cycles `json:"arrive"`

	// Finish is the last entry's completion cycle.
	Finish arch.Cycles `json:"finish"`

	// Deadline is the last entry's absolute deadline.
	Deadline arch.Cycles `json:"deadline"`

	// Missed reports Finish > Deadline.
	Missed bool `json:"missed,omitempty"`

	// Latency is Finish − Arrive.
	Latency arch.Cycles `json:"latency"`

	// Totals sums each segment kind across entries. Because chained
	// entries telescope, Totals sum exactly to Latency.
	Totals []Segment `json:"totals"`

	// Entries holds the per-phase spans in execution order.
	Entries []EntrySpan `json:"entries"`
}

// rec is one collected occupancy interval. kind is recPE, recMem or
// recHost; layer, iter and split identify a PE interval's compute
// block, so a split-halted block can be paired with its resumption.
type rec struct {
	start, end  arch.Cycles
	net         int32
	layer, iter int32
	kind        uint8
	split       bool
}

// Record kinds, one per engine.
const (
	recPE = iota
	recMem
	recHost
	nRecKinds
)

// Collector records engine occupancy events in an append-only log of
// chunks that grow geometrically and are never copied. It implements
// sim.Tracer structurally; attach it via sim.Options.Tracer (alone or
// fanned out through sim.MultiTracer). Build groups the records by
// network instance. The zero Collector drops every event — size it
// with NewCollector.
type Collector struct {
	nets   int
	chunks [][]rec
	parts  []part
}

// part is a run of a merged sub-collector's records, read in place at
// Build time: recs are in the sub-collector's instance numbering and
// remap translates them.
type part struct {
	recs  []rec
	remap []int
}

// Log chunk capacities, in records: the first chunk is small so a
// short run stays cheap, and each next one doubles up to 1<<runBits,
// the offset width of an index position.
const (
	firstChunk = 64
	runBits    = 14
)

// NewCollector sizes a collector for a stream of nets instances.
func NewCollector(nets int) *Collector {
	return &Collector{nets: nets}
}

// Event implements the sim.Tracer contract. Events for out-of-range
// instances (host warm-up probes, etc.) are dropped.
func (c *Collector) Event(engine, name string, net, layer, iter int, start, end arch.Cycles) {
	if net < 0 || net >= c.nets || end <= start {
		return
	}
	r := rec{start: start, end: end, net: int32(net), layer: int32(layer), iter: int32(iter)}
	switch engine {
	case "pe":
		r.kind = recPE
		r.split = strings.HasPrefix(name, "CB(split)")
	case "mem":
		r.kind = recMem
	case "host":
		r.kind = recHost
	default:
		return
	}
	n := len(c.chunks)
	if n == 0 || len(c.chunks[n-1]) == cap(c.chunks[n-1]) {
		size := firstChunk
		if n > 0 {
			size = min(2*cap(c.chunks[n-1]), 1<<runBits)
		}
		c.chunks = append(c.chunks, make([]rec, 0, size))
		n++
	}
	c.chunks[n-1] = append(c.chunks[n-1], r)
}

// Merge folds a sub-collector recorded over a chip-local sub-stream
// into c, translating local instance li to global instance remap[li].
// It copies no records: c keeps sub's records as they stand now and
// remap, and reads both at Build time, so remap must not change until
// then.
func (c *Collector) Merge(sub *Collector, remap []int) {
	for _, ch := range sub.chunks {
		c.parts = append(c.parts, part{ch[:len(ch):len(ch)], remap})
	}
	for _, p := range sub.parts {
		c.parts = append(c.parts, part{p.recs, compose(p.remap, remap, sub.nets)})
	}
}

// compose maps the instances of a collector merged into a middle one
// of mid instances through both remaps; -1 drops the instance.
func compose(inner, outer []int, mid int) []int {
	out := make([]int, len(inner))
	for i, g := range inner {
		out[i] = -1
		if g >= 0 && g < mid && g < len(outer) {
			out[i] = outer[g]
		}
	}
	return out
}

// recIndex groups a collector's records by (instance, kind) without
// copying them. A position packs a run and an offset in it, run<<runBits
// | offset; instance i's records of kind k sit at pos[off[key]:off[key+1]]
// with key = i*nRecKinds + k.
type recIndex struct {
	runs []part
	pos  []uint64
	off  []int
}

// index builds c's record index with a stable counting pass: each
// (instance, kind) keeps its records in collection order, which is
// time order for one engine's events. A nil collector indexes nothing.
func (c *Collector) index() recIndex {
	x := recIndex{off: []int{0}}
	if c == nil {
		return x
	}
	for _, ch := range c.chunks {
		x.runs = append(x.runs, part{recs: ch})
	}
	x.runs = append(x.runs, c.parts...)
	// Count each key into off[key+2], prefix-sum so off[key+1] is the
	// key's start, then place while advancing off[key+1] to its end.
	off := make([]int, c.nets*nRecKinds+2)
	for _, run := range x.runs {
		for i := range run.recs {
			if key := c.key(&run.recs[i], run.remap); key >= 0 {
				off[key+2]++
			}
		}
	}
	for k := 2; k < len(off); k++ {
		off[k] += off[k-1]
	}
	x.pos = make([]uint64, off[len(off)-1])
	for ri, run := range x.runs {
		for i := range run.recs {
			if key := c.key(&run.recs[i], run.remap); key >= 0 {
				x.pos[off[key+1]] = uint64(ri<<runBits | i)
				off[key+1]++
			}
		}
	}
	x.off = off[:len(off)-1]
	return x
}

// key returns r's index key in c's instance numbering, or -1 when the
// merge that brought r in has no valid target for it.
func (c *Collector) key(r *rec, remap []int) int {
	g := int(r.net)
	if remap != nil {
		if g >= len(remap) {
			return -1
		}
		g = remap[g]
	}
	if g < 0 || g >= c.nets {
		return -1
	}
	return g*nRecKinds + int(r.kind)
}

// gather appends instance i's records of kind k to dst.
func (x *recIndex) gather(dst []rec, i, k int) []rec {
	key := i*nRecKinds + k
	if key+1 >= len(x.off) {
		return dst
	}
	for _, p := range x.pos[x.off[key]:x.off[key+1]] {
		dst = append(dst, x.runs[p>>runBits].recs[p&(1<<runBits-1)])
	}
	return dst
}

// Input adapts a finished run to the span builder without importing
// the serve package: all slices are indexed by stream entry.
type Input struct {
	// Run labels the sweep point (scheduler@load or scheduler/policy).
	Run string

	// Classes and ClassOf name each entry's request class.
	Classes []string
	ClassOf []int

	// ReqOf maps entries to request ids (dense, ascending, so a
	// request's entries are contiguous); nil means entry index and
	// request id coincide.
	ReqOf []int

	// Phases names each entry's phase ("single", "prefill", "decode");
	// nil means all single-phase.
	Phases []string

	// StreamArrive is each entry's stream arrival cycle; Deadlines
	// each entry's absolute deadline.
	StreamArrive []arch.Cycles
	Deadlines    []arch.Cycles

	// Arrive and Finish are the result's effective arrival and finish
	// cycles (sim.Result.NetArrive / NetFinish).
	Arrive []arch.Cycles
	Finish []arch.Cycles

	// Chip is each entry's routed chip; nil means chip 0. ETA is the
	// dispatcher's predicted completion at routing time; nil means no
	// estimate. Shed marks admission-rejected entries; nil means none.
	Chip []int
	ETA  []arch.Cycles
	Shed []bool
}

// Build attributes every request in the input against the collected
// occupancy intervals. Requests whose entries did not finish (run
// truncated by MaxCycles) are dropped. A nil collector attributes
// every cycle to the queue.
func Build(in Input, c *Collector) []RequestSpan {
	n := len(in.ClassOf)
	if n == 0 {
		return nil
	}
	reqOf := func(i int) int {
		if in.ReqOf != nil {
			return in.ReqOf[i]
		}
		return i
	}
	reqs := 1
	for i := 1; i < n; i++ {
		if reqOf(i) != reqOf(i-1) {
			reqs++
		}
	}
	x := c.index()

	out := make([]RequestSpan, 0, reqs)
	var w sweep
	for hi := 0; hi < n; {
		// A request's entries are one contiguous run of ReqOf.
		lo := hi
		for hi++; hi < n && reqOf(hi) == reqOf(lo); hi++ {
		}
		head, last := lo, hi-1
		sp := RequestSpan{
			Req:      reqOf(head),
			Run:      in.Run,
			Class:    in.Classes[in.ClassOf[head]],
			Arrive:   in.StreamArrive[head],
			Deadline: in.Deadlines[last],
		}
		if in.Chip != nil {
			sp.Chip = in.Chip[head]
		}
		if in.ETA != nil {
			sp.ETA = in.ETA[head]
		}
		if in.Shed != nil && in.Shed[head] {
			sp.Shed = true
			sp.Chip = -1
			out = append(out, sp)
			continue
		}

		// Attribute every entry into the shared scratch, then copy the
		// request's segments and intervals out in one allocation each.
		w.segs, w.ivs, w.ends = w.segs[:0], w.ivs[:0], w.ends[:0]
		var totals [nPrio + 1]arch.Cycles
		entries := make([]EntrySpan, 0, hi-lo)
		done := true
		for i := lo; i < hi; i++ {
			a, f := in.Arrive[i], in.Finish[i]
			if f < a || (f == 0 && a > 0) {
				done = false // truncated run: entry never finished
				break
			}
			es := EntrySpan{Entry: i, Arrive: a, Finish: f}
			if in.Phases != nil {
				es.Phase = in.Phases[i]
			}
			w.pe = x.gather(w.pe[:0], i, recPE)
			w.mem = x.gather(w.mem[:0], i, recMem)
			w.host = x.gather(w.host[:0], i, recHost)
			sums := w.attribute(a, f, w.pe, w.mem, w.host)
			for k, cy := range sums {
				totals[k] += cy
			}
			w.segs = appendSegments(w.segs, &sums)
			w.ends = append(w.ends, [2]int{len(w.segs), len(w.ivs)})
			entries = append(entries, es)
		}
		if !done {
			continue
		}
		segs := make([]Segment, len(w.segs), len(w.segs)+len(totals))
		copy(segs, w.segs)
		ivs := slices.Clone(w.ivs)
		from := [2]int{}
		for k, end := range w.ends {
			entries[k].Segments = nonEmpty(segs[from[0]:end[0]:end[0]])
			entries[k].Intervals = nonEmpty(ivs[from[1]:end[1]:end[1]])
			from = end
		}
		sp.Entries = entries
		sp.Totals = nonEmpty(appendSegments(segs[len(w.segs):], &totals))
		sp.Finish = in.Finish[last]
		sp.Latency = sp.Finish - sp.Arrive
		sp.Missed = sp.Finish > sp.Deadline
		out = append(out, sp)
	}
	return out
}

// nonEmpty returns s, or nil when it is empty: a span holds nil, not
// an empty slice, for "none".
func nonEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// appendSegments appends the non-zero per-priority sums as segments,
// in canonical SegmentKinds order.
func appendSegments(dst []Segment, sums *[nPrio + 1]arch.Cycles) []Segment {
	for _, p := range canonical {
		if sums[p] > 0 {
			dst = append(dst, Segment{Kind: prioKind[p], Cycles: sums[p]})
		}
	}
	return dst
}

// Classification priorities: lower wins when intervals overlap. The
// queue, index nPrio, is the remainder no interval covers.
const (
	prioPE = iota
	prioHost
	prioPreempt
	prioHBM
	nPrio
)

var prioKind = [nPrio + 1]string{SegPE, SegHost, SegPreempt, SegHBM, SegQueue}

// canonical lists the priorities in SegmentKinds order.
var canonical = [nPrio + 1]int{nPrio, prioHBM, prioPE, prioPreempt, prioHost}

type ival struct{ start, end arch.Cycles }

// halt is a split-halted compute block awaiting its resumption; win
// indexes its preemption window.
type halt struct {
	layer, iter int32
	win         int
}

// sweep is the attribution scratch Build reuses across entries: pe,
// mem and host hold one entry's records, and segs, ivs and ends
// accumulate one request, ends holding each entry's end offsets into
// segs and ivs.
type sweep struct {
	pe, mem, host []rec
	cover         [nPrio][]ival
	halts         []halt
	segs          []Segment
	ivs           []Interval
	ends          [][2]int
}

func recByStart(x, y rec) int { return cmp.Compare(x.start, y.start) }

// sortByStart puts rs in start order. The collected records already
// are, since each engine is serial and emits its intervals in time
// order; only a caller feeding events out of order pays for a sort.
func sortByStart(rs []rec) {
	if !slices.IsSortedFunc(rs, recByStart) {
		slices.SortFunc(rs, recByStart)
	}
}

// cover appends [s, e) clipped to [a, f) to dst, a start-ordered list
// of disjoint intervals, merging it into the last one when they meet.
// Calls must come in start order.
func cover(dst []ival, a, f, s, e arch.Cycles) []ival {
	s, e = max(s, a), min(e, f)
	if s >= e {
		return dst
	}
	if n := len(dst); n > 0 && s <= dst[n-1].end {
		dst[n-1].end = max(dst[n-1].end, e)
		return dst
	}
	return append(dst, ival{s, e})
}

// attribute partitions [a, f) into labelled intervals using one
// entry's collected PE, HBM and host records, which it puts in start
// order in place. It appends the intervals, which cover the window
// exactly, to w.ivs and returns the cycles of each label, indexed by
// priority.
//
// Every cycle gets the highest-priority label whose intervals cover
// it. Each label's intervals are first reduced to a start-ordered,
// disjoint list; one forward pass with a cursor per list then finds
// the label changes, with no sort of boundaries.
func (w *sweep) attribute(a, f arch.Cycles, pe, mem, host []rec) (sums [nPrio + 1]arch.Cycles) {
	if f <= a {
		return sums
	}
	for p := range w.cover {
		w.cover[p] = w.cover[p][:0]
	}
	// A split-halted compute block is preempted out from its halt until
	// the next PE interval of the same (layer, iter) begins (or f). In
	// start order that is the first later such interval starting at or
	// after the halt. Overlapping windows merge in cover.
	sortByStart(pe)
	pre := w.cover[prioPreempt]
	w.halts = w.halts[:0]
	for _, r := range pe {
		w.cover[prioPE] = cover(w.cover[prioPE], a, f, r.start, r.end)
		for k := 0; k < len(w.halts); k++ {
			if h := w.halts[k]; h.layer == r.layer && h.iter == r.iter && r.start >= pre[h.win].start {
				pre[h.win].end = r.start
				w.halts[k] = w.halts[len(w.halts)-1]
				w.halts = w.halts[:len(w.halts)-1]
				k--
			}
		}
		if r.split {
			w.halts = append(w.halts, halt{r.layer, r.iter, len(pre)})
			pre = append(pre, ival{r.end, f})
		}
	}
	// Merge the windows in place: the merged list never outruns pre.
	// Their starts, the halts' ends, ascend when the PE intervals are
	// disjoint. When they overlap, a window may start before the last
	// merged one; cover then drops the part between the two starts, but
	// that part lies inside an earlier-starting PE interval, which
	// outranks preemption, so no label changes.
	merged := pre[:0]
	for _, iv := range pre {
		merged = cover(merged, a, f, iv.start, iv.end)
	}
	w.cover[prioPreempt] = merged
	sortByStart(mem)
	for _, r := range mem {
		w.cover[prioHBM] = cover(w.cover[prioHBM], a, f, r.start, r.end)
	}
	sortByStart(host)
	for _, r := range host {
		w.cover[prioHost] = cover(w.cover[prioHost], a, f, r.start, r.end)
	}

	var at [nPrio]int
	last := -1
	for t := a; t < f; {
		kind, next := nPrio, f
		for p := range w.cover {
			cv := w.cover[p]
			for at[p] < len(cv) && cv[at[p]].end <= t {
				at[p]++
			}
			if at[p] == len(cv) {
				continue
			}
			if iv := cv[at[p]]; iv.start <= t {
				kind, next = p, min(next, iv.end)
				break
			} else {
				next = min(next, iv.start)
			}
		}
		sums[kind] += next - t
		if kind == last {
			w.ivs[len(w.ivs)-1].End = next
		} else {
			w.ivs = append(w.ivs, Interval{Kind: prioKind[kind], Start: t, End: next})
			last = kind
		}
		t = next
	}
	return sums
}
