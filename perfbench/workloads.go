package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"

	"aimt/internal/arch"
	"aimt/internal/cluster"
	"aimt/internal/compiler"
	"aimt/internal/nn"
	"aimt/internal/obs"
	"aimt/internal/rtrace"
	"aimt/internal/serve"
	"aimt/internal/sim"
	"aimt/internal/sweep"
)

// workload is one named serving scenario. setup builds everything a
// job needs outside the timed phase; job runs the scenario once and
// returns every simulated output for the checks.
type workload struct {
	name string
	why  string

	requests int
	loads    []float64 // offered loads; per chip in cluster mode
	chips    int       // 0: single-chip load sweep over every scheduler
	classes  func() []serve.Class
	policy   string
	control  cluster.Control
	traced   bool // request tracing 1-in-1, obs registry, ledger, exposition
}

var workloads = []workload{
	{
		name:     "steady-sweep",
		why:      "default CNN/RNN sweep below saturation: engine loop, stream generation and report fold dominate",
		requests: 120_000,
		loads:    []float64{0.2, 0.5, 0.8},
		classes:  serve.DefaultClasses,
	},
	{
		name:     "flash-crowd",
		why:      "every request arrives at cycle ~0, so thousands are active at once and AI-MT's pick is the straggler",
		requests: 2_000,
		loads:    []float64{1e9},
		classes:  serve.DefaultClasses,
	},
	{
		name:     "fleet-traced",
		why:      "32-chip transformer fleet with admission and 1-in-1 request tracing plus /metrics and /requests exposition",
		requests: 20_000,
		loads:    []float64{0.9},
		chips:    32,
		classes:  serve.TransformerClasses,
		policy:   "least-work",
		control:  cluster.Control{Admission: true},
		traced:   true,
	},
	{
		name:     "fleet-predictive",
		why:      "8-chip fleet under predictive routing: forward-simulating dispatch dominates",
		requests: 10_000,
		loads:    []float64{2},
		chips:    8,
		classes:  serve.DefaultClasses,
		policy:   "predictive",
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// inputs is what setup hands to every job.
type inputs struct {
	w       *workload
	cfg     arch.Config
	classes []serve.Class
	sopts   serve.StreamOptions
	gaps    []arch.Cycles // single-chip: one stream per gap, built inside the job
	stream  *serve.Stream // cluster: the front-door stream, built in setup
	scheds  []serve.SchedulerSpec
	policy  cluster.Spec
}

// setup compiles the mix, turns offered loads into arrival gaps and,
// in cluster mode, generates the front-door stream.
func (w *workload) setup(seed int64, p *probe) (*inputs, error) {
	in := &inputs{
		w:       w,
		cfg:     arch.PaperConfig(),
		classes: w.classes(),
		sopts:   serve.StreamOptions{Requests: w.requests, Seed: seed},
	}
	// Validate also fills derived defaults (the PE fill latency).
	if err := in.cfg.Validate(); err != nil {
		return nil, err
	}
	for _, c := range in.classes {
		for _, net := range []*nn.Network{c.Net, c.DecodeNet} {
			if net == nil {
				continue
			}
			sp := p.begin("compiler.Compile", 0)
			_, err := compiler.Compile(net, in.cfg, max(c.Batch, 1))
			p.end(sp)
			if err != nil {
				return nil, fmt.Errorf("compile %s: %w", net.Name, err)
			}
			p.add("compiler.calls", 1)
		}
	}

	// Offered load -> mean arrival gap, from a one-request probe stream
	// exactly as aimt-serve does; in cluster mode loads are per chip.
	probeOpts := in.sopts
	probeOpts.Requests, probeOpts.MeanGap = 1, 1
	sp := p.begin("serve.NewStream", 0)
	probeStream, err := serve.NewStream(in.cfg, in.classes, probeOpts)
	p.end(sp)
	if err != nil {
		return nil, err
	}
	chips := max(w.chips, 1)
	for _, load := range w.loads {
		in.gaps = append(in.gaps, max(arch.Cycles(probeStream.MeanService/(load*float64(chips))), 1))
	}

	if w.chips == 0 {
		in.scheds = serve.StandardSchedulers()
		return in, nil
	}
	for _, s := range serve.StandardSchedulers() {
		if s.Name == "AI-MT" {
			in.scheds = []serve.SchedulerSpec{s}
		}
	}
	if in.policy, err = cluster.ByName(w.policy); err != nil {
		return nil, err
	}
	sopts := in.sopts
	sopts.MeanGap = in.gaps[0]
	sp = p.begin("serve.NewStream", 0)
	in.stream, err = serve.NewStream(in.cfg, in.classes, sopts)
	p.end(sp)
	if err != nil {
		return nil, err
	}
	p.add("serve.entries", float64(len(in.stream.Nets)))
	return in, nil
}

// simRun is one engine run of a job. Entry li of the run is entry
// idx[li] of stream s (idx nil: the identity).
type simRun struct {
	label string
	s     *serve.Stream
	idx   []int
	res   *sim.Result
}

func (r simRun) entry(li int) int {
	if r.idx == nil {
		return li
	}
	return r.idx[li]
}

// report is one folded report over a whole stream.
type report struct {
	s   *serve.Stream
	rep *serve.Report
}

// output is everything one job produced.
type output struct {
	runs    []simRun
	reports []report

	// head is the AI-MT report at the workload's highest offered load;
	// arrive/finish/shed are indexed by its stream's entries.
	head   report
	arrive []arch.Cycles
	finish []arch.Cycles
	shed   []bool

	// Cluster workloads only.
	cluster *cluster.Result
	// Traced fleet only: the spans cluster.Serve built and the bytes
	// the in-process /metrics and /requests exposition returned.
	spans       []rtrace.RequestSpan
	exposeBytes int
	series      int
}

func (in *inputs) job(workers int, p *probe) (*output, error) {
	if in.w.chips == 0 {
		return in.curveJob(workers, p)
	}
	return in.fleetJob(workers, p)
}

// curveJob is one single-chip load sweep: a stream per offered load,
// every scheduler on every stream over the sweep worker pool, and one
// report fold per run — the composition serve.LoadCurve performs,
// made from its public pieces so that every simulation result stays
// available to the checks.
func (in *inputs) curveJob(workers int, p *probe) (*output, error) {
	root := p.begin("job", 0)
	defer p.end(root)
	streams := make([]*serve.Stream, len(in.gaps))
	for gi, gap := range in.gaps {
		sopts := in.sopts
		sopts.MeanGap = gap
		sp := p.begin("serve.NewStream", root)
		s, err := serve.NewStream(in.cfg, in.classes, sopts)
		p.end(sp)
		if err != nil {
			return nil, err
		}
		p.add("serve.entries", float64(len(s.Nets)))
		streams[gi] = s
	}

	sw := p.begin("sweep.Run", root)
	var jobs []sweep.Job
	for _, s := range streams {
		for _, spec := range in.scheds {
			s, spec := s, p.spec(spec, sw)
			jobs = append(jobs, sweep.Job{
				Mix:       s.Name,
				Scheduler: spec.Name,
				Cfg:       in.cfg,
				Nets:      s.Nets,
				New:       func() sim.Scheduler { return spec.New(in.cfg, s) },
				Opts:      sim.Options{Arrivals: s.Arrivals, ChainAfter: s.ChainAfter},
			})
		}
	}
	outs := sweep.Run(jobs, sweep.Options{Workers: workers})
	p.end(sw)
	if err := sweep.FirstError(outs); err != nil {
		return nil, err
	}

	out := &output{}
	for _, o := range outs {
		s := streams[o.Index/len(in.scheds)]
		sp := p.begin("serve.BuildReport", root)
		rep := serve.BuildReport(s, o.Res)
		p.end(sp)
		p.add("serve.reports", 1)
		rep.Scheduler = o.Scheduler
		out.runs = append(out.runs, simRun{label: o.Scheduler + "@" + s.Name, s: s, res: o.Res})
		out.reports = append(out.reports, report{s: s, rep: rep})
		if s == streams[len(streams)-1] && o.Scheduler == "AI-MT" {
			out.head = report{s: s, rep: rep}
			out.arrive, out.finish = o.Res.NetArrive, o.Res.NetFinish
		}
	}
	if out.head.rep == nil {
		return nil, fmt.Errorf("no AI-MT run at the highest load")
	}
	return out, nil
}

// fleetJob is one cluster serving run of the front-door stream; the
// traced fleet also collects request spans into a store, publishes to
// an obs registry and ledger, and ends with one in-process /metrics
// and /requests exposition.
func (in *inputs) fleetJob(workers int, p *probe) (*output, error) {
	root := p.begin("job", 0)
	defer p.end(root)
	w := in.w
	var (
		reg *obs.Registry
		led *obs.Ledger
		st  *rtrace.Store
	)
	if w.traced {
		reg, led = obs.NewRegistry(), obs.NewLedger(0)
		st = rtrace.NewStore(rtrace.Options{SampleEvery: 1})
	}
	cs := p.begin("cluster.Serve", root)
	opts := cluster.Options{
		Chips:   w.chips,
		Workers: workers,
		Metrics: reg,
		Ledger:  led,
		Control: w.control,
		Trace:   st,
	}
	res, err := cluster.Serve(in.cfg, in.stream, p.spec(in.scheds[0], cs), p.policy(in.policy.New()), opts)
	p.end(cs)
	if err != nil {
		return nil, err
	}

	out := &output{cluster: res, spans: res.Spans}
	if w.traced {
		ex := p.begin("obs.expose", root)
		mux := obs.Handler(reg, led)
		rtrace.Attach(mux, st)
		for _, path := range []string{"/metrics", "/requests"} {
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				p.end(ex)
				return nil, fmt.Errorf("%s: HTTP %d", path, rec.Code)
			}
			out.exposeBytes += rec.Body.Len()
			if path == "/metrics" {
				for _, line := range strings.Split(rec.Body.String(), "\n") {
					if line != "" && !strings.HasPrefix(line, "#") {
						out.series++
					}
				}
			}
		}
		p.end(ex)
	}

	s := in.stream
	perChip := chipEntries(res.Assignment, w.chips)
	for c, r := range res.ChipResults {
		if r != nil {
			out.runs = append(out.runs, simRun{label: fmt.Sprintf("chip %d", c), s: s, idx: perChip[c], res: r})
		}
	}
	out.arrive, out.finish = mergeChips(s, out.runs)
	out.shed = res.Shed
	out.head = report{s: s, rep: res.Agg}
	out.reports = []report{out.head}
	return out, nil
}

// chipEntries lists, per chip, the stream entries routed there in
// stream order (shed entries, assigned -1, are on no chip).
func chipEntries(assign []int, chips int) [][]int {
	per := make([][]int, chips)
	for i, c := range assign {
		if c >= 0 && c < chips {
			per[c] = append(per[c], i)
		}
	}
	return per
}

// mergeChips maps every chip run's effective arrivals and finishes
// back to stream coordinates, as cluster.Serve merges them: entries no
// chip served keep their stream arrival and a zero finish.
func mergeChips(s *serve.Stream, runs []simRun) (arrive, finish []arch.Cycles) {
	arrive = append([]arch.Cycles(nil), s.Arrivals...)
	finish = make([]arch.Cycles, len(s.Nets))
	for _, r := range runs {
		for li := range r.res.NetFinish {
			if li >= len(r.idx) {
				break
			}
			gi := r.idx[li]
			arrive[gi], finish[gi] = r.res.NetArrive[li], r.res.NetFinish[li]
		}
	}
	return arrive, finish
}
