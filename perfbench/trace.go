package main

import (
	"fmt"
	"io"
	"reflect"
	"sort"
	"time"

	"aimt/internal/arch"
	"aimt/internal/cluster"
	"aimt/internal/hdr"
	"aimt/internal/rtrace"
	"aimt/internal/serve"
	"aimt/internal/sim"
)

// perLayer lists the per-layer metrics of a traced run, in print order.
var perLayer = []struct{ name, unit string }{
	{"compiler.calls", "count"}, {"compiler.ms", "ms"},
	{"serve.stream_ms", "ms"}, {"serve.entries", "count"},
	{"serve.report_ms", "ms"}, {"serve.reports", "count"},
	{"sim.blocks", "count"}, {"sim.ms", "ms"}, {"sim.self_ms", "ms"},
	{"sim.ns_per_block", "ns"}, {"sim.splits", "count"},
	{"sched.pickmb_calls", "count"}, {"sched.pickmb_ms", "ms"},
	{"sched.pickmb_ns_p50", "ns"}, {"sched.pickmb_ns_p99", "ns"},
	{"sched.pickmb_idle_frac", "frac"}, {"sched.pickcb_calls", "count"},
	{"sched.pickcb_ms", "ms"}, {"sched.hook_ms", "ms"},
	{"cluster.pick_calls", "count"}, {"cluster.pick_ms", "ms"},
	{"cluster.pick_ns_p50", "ns"}, {"cluster.pick_ns_p99", "ns"},
	{"cluster.shed_frac", "frac"},
	{"sweep.jobs", "count"}, {"sweep.job_ms_p50", "ms"},
	{"sweep.job_ms_max", "ms"}, {"sweep.busy_frac", "frac"},
	{"rtrace.events", "count"}, {"rtrace.event_ms", "ms"},
	{"rtrace.build_ms", "ms"}, {"rtrace.spans", "count"}, {"rtrace.store_ms", "ms"},
	{"obs.expose_ms", "ms"}, {"obs.expose_bytes", "bytes"}, {"obs.series", "count"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
	{"bench.trace_overhead_frac", "frac"}, {"bench.unattributed_frac", "frac"},
}

// untracedSelfMs keys the engine self time of the re-called fleet run
// with request tracing off, the median of untracedReruns runs.
const (
	untracedSelfMs = "untraced.sim_self_ms"
	untracedReruns = 3
)

// layerTimes are the per-layer self times compared to name the layer
// a workload spends most in.
var layerTimes = []string{
	"compiler.ms", "serve.stream_ms", "serve.report_ms", "sim.self_ms",
	"sched.pickmb_ms", "sched.pickcb_ms", "sched.hook_ms", "cluster.pick_ms",
	"rtrace.ms", "obs.expose_ms",
}

// traced is the --trace 1 run: set up once with the probe on, run the
// untraced job loop for half the budget and the traced loop for the
// other half, re-call the layers a job cannot time from outside, and
// report each per-layer metric as its median over the traced jobs.
func (b *bench) traced(stdout io.Writer) error {
	setup := newProbe("setup", b.base, b.clock)
	in, err := b.w.setup(b.c.seed, setup)
	if err != nil {
		return err
	}
	b.job(in, b.c.workers) // warm-up and reference outputs
	half := time.Duration(b.c.seconds) * time.Second / 2
	plain := b.timed(in, b.c.workers, half, nil)
	probes := []*probe{setup}
	traced := b.timed(in, b.c.workers, half, func(i int) *probe {
		p := newProbe(fmt.Sprintf("job %d", i+1), b.base, b.clock)
		probes = append(probes, p)
		return p
	})
	b.job(in, 1)
	if !b.refSet {
		return fmt.Errorf("no job completed: %v", b.problems)
	}
	recall := newProbe("re-called layers", b.base, b.clock)
	probes = append(probes, recall)
	extra, err := b.recall(in, recall)
	if err != nil {
		b.failed++
		b.attempted++
		b.problems = append(b.problems, err.Error())
		fmt.Fprintf(stdout, "re-called layers: %v\n", err)
	}

	per := map[string][]float64{}
	for _, s := range traced {
		if s.out == nil {
			continue
		}
		for k, v := range b.layerMetrics(setup, s) {
			per[k] = append(per[k], v)
		}
	}
	final := map[string]float64{}
	for k, v := range per {
		final[k] = median(v)
	}
	for k, v := range extra {
		final[k] = v
	}
	// The request-span collector runs inside the engine: its cost is
	// the engine self time tracing adds.
	if base, ok := final[untracedSelfMs]; ok {
		final["rtrace.event_ms"] = final["sim.self_ms"] - base
		final["sim.self_ms"] = base
	}
	final["rtrace.ms"] = final["rtrace.event_ms"] + final["rtrace.build_ms"] + final["rtrace.store_ms"]
	wall := func(ss []sample) float64 { return median(field(ss, func(s sample) float64 { return scaled(s.wall, s.refWall) })) }
	final["bench.trace_overhead_frac"] = wall(traced)/wall(plain) - 1

	var ms []metric
	for _, l := range perLayer {
		ms = append(ms, metric{l.name, final[l.name], l.unit})
	}
	fmt.Fprintf(stdout, "%d untraced and %d traced jobs, %d jobs in all\n", len(plain), len(traced), b.attempted)
	printTable(stdout, ms)
	byTime := append([]string(nil), layerTimes...)
	sort.SliceStable(byTime, func(i, j int) bool { return final[byTime[i]] > final[byTime[j]] })
	fmt.Fprintf(stdout, "largest layer time: %s (%.1f ms), then %s (%.1f ms)\n",
		byTime[0], final[byTime[0]], byTime[1], final[byTime[1]])
	path, err := b.writeSpans(probes)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "spans: %s\n", path)
	return b.result(stdout, ms)
}

func spanMs(p *probe, name string) float64 {
	var ns int64
	for _, s := range p.spans {
		if s.Name == name {
			ns += s.dur()
		}
	}
	return float64(ns) / 1e6
}

// layerMetrics derives one traced job's per-layer metrics from its
// spans, its wrappers' tallies and its outputs.
func (b *bench) layerMetrics(setup *probe, s sample) map[string]float64 {
	p, out := s.probe, s.out
	m := map[string]float64{
		"compiler.calls":      setup.counts["compiler.calls"],
		"compiler.ms":         spanMs(setup, "compiler.Compile"),
		"serve.stream_ms":     spanMs(setup, "serve.NewStream") + spanMs(p, "serve.NewStream"),
		"serve.entries":       setup.counts["serve.entries"] + p.counts["serve.entries"],
		"serve.report_ms":     spanMs(p, "serve.BuildReport"),
		"serve.reports":       p.counts["serve.reports"],
		"sim.blocks":          float64(s.blocks),
		"sim.splits":          float64(s.splits),
		"obs.expose_ms":       spanMs(p, "obs.expose"),
		"obs.expose_bytes":    float64(out.exposeBytes),
		"obs.series":          float64(out.series),
		"runtime.gc_cycles":   s.gcs,
		"runtime.gc_pause_ms": s.gcPauseMs,
	}

	// Engine and scheduler: one simulation per scheduler wrapper.
	sims := simTotals(p)
	m["sim.ms"] = sims.ms
	m["sim.self_ms"] = sims.selfMs
	if s.blocks > 0 {
		m["sim.ns_per_block"] = sims.ms * 1e6 / float64(s.blocks)
	}
	m["sched.pickmb_calls"] = float64(sims.mb.calls)
	m["sched.pickmb_ms"] = sims.mb.ms()
	m["sched.pickmb_ns_p50"] = float64(sims.mbHist.Quantile(50))
	m["sched.pickmb_ns_p99"] = float64(sims.mbHist.Quantile(99))
	if sims.mb.calls > 0 {
		m["sched.pickmb_idle_frac"] = float64(sims.mbIdle) / float64(sims.mb.calls)
	}
	m["sched.pickcb_calls"] = float64(sims.cb.calls)
	m["sched.pickcb_ms"] = sims.cb.ms()
	m["sched.hook_ms"] = sims.hooks.ms()
	durs := sims.durs

	// Sweep: each group of simulations shares one worker pool.
	m["sweep.jobs"] = float64(len(durs))
	m["sweep.job_ms_p50"] = median(durs)
	var busy, capacity float64
	for _, g := range sims.groups {
		busy += float64(g.busy)
		capacity += float64(min(b.c.workers, g.n)) * float64(g.end-g.start)
	}
	if len(durs) > 0 {
		sort.Float64s(durs)
		m["sweep.job_ms_max"] = durs[len(durs)-1]
	}
	if capacity > 0 {
		m["sweep.busy_frac"] = busy / capacity
	}

	// Cluster dispatch.
	var picks timing
	var pickHist hdr.Histogram
	for _, q := range p.pols {
		picks.calls, picks.sampled, picks.ns = picks.calls+q.picks.calls, picks.sampled+q.picks.sampled, picks.ns+q.picks.ns
		pickHist.Merge(&q.hist)
	}
	m["cluster.pick_calls"] = float64(picks.calls)
	m["cluster.pick_ms"] = picks.ms()
	m["cluster.pick_ns_p50"] = float64(pickHist.Quantile(50))
	m["cluster.pick_ns_p99"] = float64(pickHist.Quantile(99))
	if c := out.cluster; c != nil {
		m["cluster.shed_frac"] = float64(c.ShedCount) / float64(len(c.Assignment))
	}
	m["bench.unattributed_frac"] = unattributed(p)
	return m
}

// extent is the span of one group of simulations that shared a worker
// pool: first start, last end, summed busy time and count.
type extent struct {
	start, end, busy int64
	n                int
}

// sims totals the simulations one probe's scheduler wrappers observed.
type sims struct {
	ms, selfMs    float64
	mb, cb, hooks timing
	mbIdle        int64
	mbHist        hdr.Histogram
	durs          []float64 // per simulation, ms
	groups        map[int]*extent
}

func simTotals(p *probe) *sims {
	t := &sims{groups: map[int]*extent{}}
	var sampled int64
	for _, sp := range p.scheds {
		d := sp.last - sp.start
		t.ms += float64(d) / 1e6
		t.durs = append(t.durs, float64(d)/1e6)
		for _, pair := range [][2]*timing{{&t.mb, &sp.mb}, {&t.cb, &sp.cb}, {&t.hooks, &sp.hooks}} {
			pair[0].calls += pair[1].calls
			pair[0].sampled += pair[1].sampled
			pair[0].ns += pair[1].ns
		}
		t.mbIdle += sp.mbIdle
		t.mbHist.Merge(&sp.mbHist)
		sampled += sp.sampled()
		g := t.groups[sp.parent]
		if g == nil {
			g = &extent{start: sp.start, end: sp.last}
			t.groups[sp.parent] = g
		}
		g.start, g.end = min(g.start, sp.start), max(g.end, sp.last)
		g.busy += d
		g.n++
	}
	// Each timed callback leaves one clock read in the engine's time.
	t.selfMs = t.ms - t.mb.ms() - t.cb.ms() - t.hooks.ms() - float64(sampled*p.clock)/1e6
	return t
}

// unattributed is the share of the job span covered by none of its
// direct child spans.
func unattributed(p *probe) float64 {
	var job span
	for _, s := range p.spans {
		if s.Name == "job" && s.Parent == 0 {
			job = s
		}
	}
	if job.dur() <= 0 {
		return 0
	}
	var kids []span
	for _, s := range p.spans {
		if s.Parent == job.ID {
			kids = append(kids, s)
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var covered, reach int64 = 0, job.Start
	for _, k := range kids {
		start, end := max(k.Start, reach), min(k.End, job.End)
		if end > start {
			covered += end - start
			reach = end
		}
	}
	return 1 - float64(covered)/float64(job.dur())
}

// recall measures layer work that runs only inside cluster.Serve by
// re-calling each layer's public entry point on the reference job's
// inputs: the per-chip and aggregate report folds and, on the traced
// fleet, the request-span collector, span build and store.
func (b *bench) recall(in *inputs, p *probe) (map[string]float64, error) {
	m := map[string]float64{}
	ref := b.refOut
	res := ref.cluster
	if res == nil {
		return m, nil
	}
	s, chips := in.stream, b.w.chips
	perChip := chipEntries(res.Assignment, chips)
	merged := &sim.Result{Scheduler: res.Scheduler, NetArrive: ref.arrive, NetFinish: ref.finish}
	for c, r := range res.ChipResults {
		if r == nil {
			continue
		}
		merged.Makespan = max(merged.Makespan, r.Makespan)
		sub := s.SubStream(fmt.Sprintf("%s-chip%d", s.Name, c), perChip[c])
		sp := p.begin("serve.BuildReport", 0)
		serve.BuildReport(sub, r)
		p.end(sp)
		m["serve.reports"]++
	}
	sp := p.begin("serve.BuildReport", 0)
	agg := serve.BuildReportShed(s, merged, res.Shed)
	p.end(sp)
	m["serve.reports"]++
	m["serve.report_ms"] = spanMs(p, "serve.BuildReport")
	if agg.P99 != res.Agg.P99 || agg.Misses != res.Agg.Misses || agg.Shed != res.Agg.Shed {
		return m, fmt.Errorf("re-folded report (p99 %d, %d misses, %d shed) differs from the run's (p99 %d, %d misses, %d shed)",
			agg.P99, agg.Misses, agg.Shed, res.Agg.P99, res.Agg.Misses, res.Agg.Shed)
	}
	if !b.w.traced {
		return m, nil
	}

	// The collector's cost inside the engine (the event calls and what
	// the engine does to emit them) is the traced jobs' engine self time
	// less that of a run with request tracing off. One sampled call
	// that a collection or the other worker stretches is scaled up by
	// sampleEvery, so one run can even read negative: take the median
	// of several, each timed by a probe of its own.
	var selfs []float64
	for i := 0; i < untracedReruns; i++ {
		q := newProbe("untraced re-run", b.base, b.clock)
		cs := q.begin("cluster.Serve", 0)
		_, err := cluster.Serve(in.cfg, s, q.spec(in.scheds[0], cs), in.policy.New(), cluster.Options{
			Chips:   chips,
			Workers: b.c.workers,
			Control: b.w.control,
		})
		q.end(cs)
		if err != nil {
			return m, err
		}
		selfs = append(selfs, simTotals(q).selfMs)
	}
	m[untracedSelfMs] = median(selfs)

	// Collect the run's engine events into one collector per chip, as
	// cluster.Serve does, then build and store the spans as it does;
	// they must match the run's.
	cols := make([]*countingTracer, chips)
	res2, err := cluster.Serve(in.cfg, s, in.scheds[0], in.policy.New(), cluster.Options{
		Chips:   chips,
		Workers: b.c.workers,
		Control: b.w.control,
		EngineTrace: func(c int) sim.Tracer {
			cols[c] = &countingTracer{col: rtrace.NewCollector(len(perChip[c]))}
			return cols[c]
		},
	})
	if err != nil {
		return m, err
	}
	if !reflect.DeepEqual(res2.Assignment, res.Assignment) {
		return m, fmt.Errorf("re-run routed differently")
	}
	for _, c := range cols {
		if c != nil {
			m["rtrace.events"] += float64(c.n)
		}
	}

	heads := make(map[int]int, s.Requests)
	for i := len(s.Nets) - 1; i >= 0; i-- {
		req := i
		if s.ReqOf != nil {
			req = s.ReqOf[i]
		}
		heads[req] = i
	}
	etas := make([]arch.Cycles, len(s.Nets))
	for _, sp := range ref.spans {
		etas[heads[sp.Req]] = sp.ETA
	}
	bs := p.begin("rtrace.Build", 0)
	gcol := rtrace.NewCollector(len(s.Nets))
	for c, col := range cols {
		if col != nil {
			gcol.Merge(col.col, perChip[c])
		}
	}
	tin := serve.TraceInput(s, merged, fmt.Sprintf("%s/%s", in.scheds[0].Name, in.policy.Name))
	tin.Chip, tin.ETA, tin.Shed = res.Assignment, etas, res.Shed
	spans := rtrace.Build(tin, gcol)
	p.end(bs)
	ss := p.begin("rtrace.Store.AddRun", 0)
	rtrace.NewStore(rtrace.Options{SampleEvery: 1}).AddRun(spans)
	p.end(ss)
	if !reflect.DeepEqual(spans, ref.spans) {
		return m, fmt.Errorf("re-built request spans differ from the run's")
	}
	m["rtrace.build_ms"] = spanMs(p, "rtrace.Build")
	m["rtrace.spans"] = float64(len(spans))
	m["rtrace.store_ms"] = spanMs(p, "rtrace.Store.AddRun")
	return m, nil
}
