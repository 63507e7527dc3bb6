package rtrace

import (
	"sort"

	"aimt/internal/arch"
)

// The sort-based attribution the sweep replaced, kept as the oracle the
// sweep is checked against: every occupancy interval becomes two
// boundaries, the boundaries are sorted, and one pass with a cover
// count per priority labels the window.

// peIval is one PE occupancy interval with enough identity to pair a
// split-halted block with its resumption.
type peIval struct {
	start, end  arch.Cycles
	layer, iter int
	split       bool
}

// bnd is one sweep boundary: at cycle `at`, priority `prio` gains
// (+1) or loses (-1) one covering interval.
type bnd struct {
	at    arch.Cycles
	prio  int
	delta int
}

// oracleAttribute partitions [a, f) into labelled segments using the
// collected occupancy intervals for one entry.
func oracleAttribute(a, f arch.Cycles, pe []peIval, mem, host []ival) ([]Segment, []Interval) {
	if f <= a {
		return nil, nil
	}
	bs := make([]bnd, 0, 2*(len(pe)+len(mem)+len(host))+8)
	add := func(prio int, s, e arch.Cycles) {
		if s < a {
			s = a
		}
		if e > f {
			e = f
		}
		if s < e {
			bs = append(bs, bnd{s, prio, 1}, bnd{e, prio, -1})
		}
	}
	for _, iv := range pe {
		add(prioPE, iv.start, iv.end)
	}
	for _, iv := range host {
		add(prioHost, iv.start, iv.end)
	}
	for _, iv := range mem {
		add(prioHBM, iv.start, iv.end)
	}
	// A split-halted compute block is preempted out until the next PE
	// interval for the same (layer, iter) begins.
	for i, iv := range pe {
		if !iv.split {
			continue
		}
		resume := f
		for j, jv := range pe {
			if j == i || jv.layer != iv.layer || jv.iter != iv.iter {
				continue
			}
			if jv.start >= iv.end && jv.start < resume {
				resume = jv.start
			}
		}
		add(prioPreempt, iv.end, resume)
	}

	sort.Slice(bs, func(i, j int) bool {
		if bs[i].at != bs[j].at {
			return bs[i].at < bs[j].at
		}
		if bs[i].prio != bs[j].prio {
			return bs[i].prio < bs[j].prio
		}
		return bs[i].delta < bs[j].delta
	})

	var counts [nPrio]int
	kindAt := func() string {
		for p := 0; p < nPrio; p++ {
			if counts[p] > 0 {
				return prioKind[p]
			}
		}
		return SegQueue
	}
	var ivs []Interval
	sums := map[string]arch.Cycles{}
	emit := func(from, to arch.Cycles, kind string) {
		if to <= from {
			return
		}
		sums[kind] += to - from
		if n := len(ivs); n > 0 && ivs[n-1].Kind == kind && ivs[n-1].End == from {
			ivs[n-1].End = to
			return
		}
		ivs = append(ivs, Interval{Kind: kind, Start: from, End: to})
	}
	cur := a
	for i := 0; i < len(bs); {
		at := bs[i].at
		emit(cur, at, kindAt())
		if at > cur {
			cur = at
		}
		for i < len(bs) && bs[i].at == at {
			counts[bs[i].prio] += bs[i].delta
			i++
		}
	}
	emit(cur, f, kindAt())

	segs := make([]Segment, 0, len(sums))
	for _, k := range SegmentKinds {
		if sums[k] > 0 {
			segs = append(segs, Segment{Kind: k, Cycles: sums[k]})
		}
	}
	return segs, ivs
}

// oracleBuild is the span builder over per-instance interval lists,
// grouping entries by request id through a map.
func oracleBuild(in Input, pe [][]peIval, mem, host [][]ival) []RequestSpan {
	n := len(in.ClassOf)
	if n == 0 {
		return nil
	}
	groups := make([][]int, 0, n)
	at := make(map[int]int, n)
	for i := 0; i < n; i++ {
		req := i
		if in.ReqOf != nil {
			req = in.ReqOf[i]
		}
		gi, ok := at[req]
		if !ok {
			gi = len(groups)
			at[req] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}

	out := make([]RequestSpan, 0, len(groups))
	for _, g := range groups {
		head, last := g[0], g[len(g)-1]
		req := head
		if in.ReqOf != nil {
			req = in.ReqOf[head]
		}
		sp := RequestSpan{
			Req:      req,
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

		totals := map[string]arch.Cycles{}
		done := true
		for _, i := range g {
			a, f := in.Arrive[i], in.Finish[i]
			if f < a || (f == 0 && a > 0) {
				done = false
				break
			}
			es := EntrySpan{Entry: i, Arrive: a, Finish: f}
			if in.Phases != nil {
				es.Phase = in.Phases[i]
			}
			es.Segments, es.Intervals = oracleAttribute(a, f, pe[i], mem[i], host[i])
			for _, s := range es.Segments {
				totals[s.Kind] += s.Cycles
			}
			sp.Entries = append(sp.Entries, es)
		}
		if !done {
			continue
		}
		sp.Finish = in.Finish[last]
		sp.Latency = sp.Finish - sp.Arrive
		sp.Missed = sp.Finish > sp.Deadline
		for _, k := range SegmentKinds {
			if totals[k] > 0 {
				sp.Totals = append(sp.Totals, Segment{Kind: k, Cycles: totals[k]})
			}
		}
		out = append(out, sp)
	}
	return out
}

// oracleCollector is the per-instance collector the flat log replaced:
// three slices per instance, and a Merge that copies.
type oracleCollector struct {
	pe   [][]peIval
	mem  [][]ival
	host [][]ival
}

func newOracleCollector(nets int) *oracleCollector {
	return &oracleCollector{
		pe:   make([][]peIval, nets),
		mem:  make([][]ival, nets),
		host: make([][]ival, nets),
	}
}

func (c *oracleCollector) Event(engine, name string, net, layer, iter int, start, end arch.Cycles) {
	if net < 0 || net >= len(c.pe) || end <= start {
		return
	}
	switch engine {
	case "pe":
		split := len(name) >= 9 && name[:9] == "CB(split)"
		c.pe[net] = append(c.pe[net], peIval{start, end, layer, iter, split})
	case "mem":
		c.mem[net] = append(c.mem[net], ival{start, end})
	case "host":
		c.host[net] = append(c.host[net], ival{start, end})
	}
}

func (c *oracleCollector) Merge(sub *oracleCollector, remap []int) {
	for li, gi := range remap {
		if li >= len(sub.pe) || gi < 0 || gi >= len(c.pe) {
			continue
		}
		c.pe[gi] = append(c.pe[gi], sub.pe[li]...)
		c.mem[gi] = append(c.mem[gi], sub.mem[li]...)
		c.host[gi] = append(c.host[gi], sub.host[li]...)
	}
}
