package main

import (
	"fmt"
	"math"
	"sort"

	"aimt/internal/arch"
	"aimt/internal/compiler"
	"aimt/internal/rtrace"
)

// maxProblems bounds how many problems one check reports.
const maxProblems = 8

type problems []string

func (p *problems) addf(format string, args ...any) {
	if len(*p) < maxProblems {
		*p = append(*p, fmt.Sprintf(format, args...))
	}
}

// blocksOf returns a compiled network's memory-block (equivalently,
// compute-block) total: one of each per sub-layer.
func blocksOf(cn *compiler.CompiledNetwork) int {
	n := 0
	for _, l := range cn.Layers {
		n += l.Iters
	}
	return n
}

// check runs the output checks on one job:
//   - served + shed == offered entries, for every report and every
//     cluster dispatch;
//   - every served entry finishes at or after its effective arrival,
//     which is not before its stream arrival;
//   - each run's MB and CB counts equal the compiled block totals of
//     the networks it served;
//   - every request span's segments sum exactly to finish - arrive and
//     agree with the simulated result.
func check(out *output) problems {
	var p problems
	for _, r := range out.runs {
		n := len(r.res.NetFinish)
		if r.idx != nil && n != len(r.idx) {
			p.addf("%s: %d results for %d routed entries", r.label, n, len(r.idx))
			continue
		}
		if r.idx == nil && n != len(r.s.Nets) {
			p.addf("%s: %d results for %d entries", r.label, n, len(r.s.Nets))
			continue
		}
		want := 0
		for li := 0; li < n; li++ {
			gi := r.entry(li)
			a, f := r.res.NetArrive[li], r.res.NetFinish[li]
			if f < a || a < r.s.Arrivals[gi] {
				p.addf("%s: entry %d arrives %d (stream %d), finishes %d", r.label, gi, a, r.s.Arrivals[gi], f)
			}
			want += blocksOf(r.s.Nets[gi])
		}
		if r.res.MBCount != want || r.res.CBCount != want {
			p.addf("%s: %d MBs / %d CBs completed, compiled total %d", r.label, r.res.MBCount, r.res.CBCount, want)
		}
	}
	for _, rp := range out.reports {
		if got := rp.rep.Latency.Count() + rp.rep.Shed; got != rp.rep.Requests || got != len(rp.s.Nets) {
			p.addf("%s: %d served + %d shed for %d offered entries", rp.rep.Scheduler, rp.rep.Latency.Count(), rp.rep.Shed, len(rp.s.Nets))
		}
	}
	if c := out.cluster; c != nil {
		routed, shed := 0, 0
		for i, chip := range c.Assignment {
			isShed := i < len(c.Shed) && c.Shed[i]
			switch {
			case isShed && chip == -1:
				shed++
			case !isShed && chip >= 0:
				routed++
			default:
				p.addf("entry %d: chip %d, shed %v", i, chip, isShed)
			}
		}
		served := 0
		for _, r := range out.runs {
			served += len(r.res.NetFinish)
		}
		if served != routed || routed+shed != len(out.head.s.Nets) {
			p.addf("cluster: %d served, %d routed + %d shed for %d offered entries", served, routed, shed, len(out.head.s.Nets))
		}
	}
	if out.spans != nil {
		checkSpans(&p, out)
	}
	return p
}

// checkSpans verifies the request spans of a traced fleet run: one per
// request, shed ones empty, and every other one partitioned exactly
// into segments that agree with the simulated arrivals and finishes.
func checkSpans(p *problems, out *output) {
	s := out.head.s
	if len(out.spans) != s.Requests {
		p.addf("%d request spans for %d requests", len(out.spans), s.Requests)
	}
	for _, sp := range out.spans {
		if sp.Shed {
			if len(sp.Entries) != 0 {
				p.addf("span %d: shed with %d entries", sp.Req, len(sp.Entries))
			}
			continue
		}
		if sp.Latency != sp.Finish-sp.Arrive || sumSegs(sp.Totals) != sp.Latency {
			p.addf("span %d: totals %d, latency %d, finish-arrive %d", sp.Req, sumSegs(sp.Totals), sp.Latency, sp.Finish-sp.Arrive)
		}
		for _, e := range sp.Entries {
			if e.Entry < 0 || e.Entry >= len(out.finish) {
				p.addf("span %d: entry %d out of range", sp.Req, e.Entry)
				continue
			}
			if got := sumSegs(e.Segments); got != e.Finish-e.Arrive {
				p.addf("span %d entry %d: segments sum %d, finish-arrive %d", sp.Req, e.Entry, got, e.Finish-e.Arrive)
			}
			if e.Arrive != out.arrive[e.Entry] || e.Finish != out.finish[e.Entry] {
				p.addf("span %d entry %d: [%d,%d) but simulated [%d,%d)", sp.Req, e.Entry, e.Arrive, e.Finish, out.arrive[e.Entry], out.finish[e.Entry])
			}
		}
	}
}

func sumSegs(segs []rtrace.Segment) arch.Cycles {
	var t arch.Cycles
	for _, s := range segs {
		t += s.Cycles
	}
	return t
}

// fingerprint hashes every modelled output of a job: per run the block
// and split counts, makespan and every arrival and finish; the cluster
// routing and shed verdicts; and each request span's attribution. Two
// jobs over the same inputs must hash alike whatever the worker count
// or tracing.
func fingerprint(out *output) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v int64) {
		h ^= uint64(v)
		h *= 1099511628211
		h ^= h >> 29
	}
	for _, r := range out.runs {
		mix(int64(r.res.MBCount))
		mix(int64(r.res.CBCount))
		mix(int64(r.res.Splits))
		mix(int64(r.res.Makespan))
		for i := range r.res.NetFinish {
			mix(int64(r.res.NetArrive[i]))
			mix(int64(r.res.NetFinish[i]))
		}
	}
	if c := out.cluster; c != nil {
		for _, chip := range c.Assignment {
			mix(int64(chip))
		}
	}
	for _, sp := range out.spans {
		mix(int64(sp.Req))
		mix(int64(sp.Chip))
		mix(int64(sp.ETA))
		for _, seg := range sp.Totals {
			mix(int64(len(seg.Kind)))
			mix(int64(seg.Cycles))
		}
	}
	return h
}

// modelled is the workload's modelled outcome: AI-MT at its highest
// offered load, per request (a transformer request is its prefill and
// every decode step). It is deterministic for a seed.
type modelled struct {
	Offered      int     // offered requests
	Served       int     // requests not shed
	P50, P99     float64 // request latency quantiles, kcycles
	MissFrac     float64 // (requests missing a deadline + shed requests) / offered
	ReqPerMcycle float64 // served requests per million cycles of makespan
}

func modelledOf(out *output) modelled {
	s := out.head.s
	var lat []arch.Cycles
	offered, misses := 0, 0
	for head := 0; head < len(s.Nets); {
		last := head
		for last+1 < len(s.Nets) && s.ReqOf != nil && s.ReqOf[last+1] == s.ReqOf[head] {
			last++
		}
		offered++
		if head < len(out.shed) && out.shed[head] {
			misses++
		} else {
			lat = append(lat, out.finish[last]-s.Arrivals[head])
			for i := head; i <= last; i++ {
				if out.finish[i] > s.Deadlines[i] {
					misses++
					break
				}
			}
		}
		head = last + 1
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	m := modelled{
		Offered:  offered,
		Served:   len(lat),
		P50:      float64(rank(lat, 50)) / 1e3,
		P99:      float64(rank(lat, 99)) / 1e3,
		MissFrac: float64(misses) / float64(offered),
	}
	if mk := out.head.rep.Makespan; mk > 0 {
		m.ReqPerMcycle = float64(len(lat)) / float64(mk) * 1e6
	}
	return m
}

// rank is the nearest-rank p-th percentile of sorted values.
func rank(sorted []arch.Cycles, p float64) arch.Cycles {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}
