// Command perfbench is the repository benchmark. It runs one named
// serving workload as a closed loop of simulation jobs for a fixed
// wall-clock budget, checks every simulated output, and prints either
// the end-to-end metrics (--trace 0) or the per-layer metrics of a
// separately traced run (--trace 1). The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload steady-sweep --seed 1 --seconds 20 --trace 0
//
// NOTES.md in this directory describes the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// setupRounds is how many times a run sets up; setup_s is the median.
	setupRounds = 3
	// maxWorkers caps the sweep worker pool at the two cores the
	// workloads were sized for. The set-up warm-ups and the traced run
	// use the pool.
	maxWorkers = 2
	// timedWorkers is the pool size of the timed jobs of an end-to-end
	// run: one simulation at a time, so that a job's host time follows
	// the host's speed as the single-threaded reference kernel does
	// (ref.go), not how a shared host schedules two threads.
	timedWorkers = 1
	// outDir, under the working directory, receives the span dump of a
	// traced run.
	outDir = ".bench_build/perfbench"
)

// endToEnd lists the end-to-end metrics, in print order. Host times
// are medians over the set-ups or the timed jobs, in reference seconds
// (ref.go); the sim_ metrics are AI-MT's at the workload's highest
// offered load.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"},
	{"sim_blocks_per_s", "blocks/s"}, {"alloc_mb", "MiB"}, {"max_rss_mb", "MiB"},
	{"sim_p50_kcycles", "kcycles"}, {"sim_p99_kcycles", "kcycles"},
	{"sim_miss_frac", "frac"}, {"sim_req_per_mcycle", "req/Mcyc"},
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	workers  int
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "workload name: steady-sweep, flash-crowd, fleet-traced, fleet-predictive, or all of them in turn")
	flag.Int64Var(&c.seed, "seed", 1, "stream seed; the same seed gives the same inputs")
	flag.IntVar(&c.seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	c.workers = min(maxWorkers, runtime.NumCPU())
	names := []string{c.workload}
	if c.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	status := 0
	for _, name := range names {
		c.workload = name
		if err := run(c, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			status = 1
		}
	}
	os.Exit(status)
}

// bench is one benchmark process: the workload, the reference
// fingerprint every job must reproduce, and the job tally.
type bench struct {
	w     *workload
	c     config
	base  time.Time
	clock int64

	// The reference job: its fingerprint and modelled outcome, and on a
	// traced run its outputs, which the layer re-calls read.
	refSet    bool
	ref       uint64
	refModel  modelled
	refOut    *output
	attempted int
	failed    int
	problems  []string
}

// sample is one timed job.
type sample struct {
	wall, cpu float64 // seconds
	// refWall and refCPU are the mean reference pass times measured
	// right before and right after the job.
	refWall, refCPU float64
	rss             float64 // peak resident MiB while the job ran
	alloc           float64 // bytes allocated
	gcs             float64
	gcPauseMs       float64
	out             *output // traced jobs only
	probe           *probe
	blocks          int64
	splits          int64
}

func run(c config, stdout io.Writer) error {
	w, err := workloadByName(c.workload)
	if err != nil {
		return err
	}
	if c.seconds < 1 || (c.trace != 0 && c.trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	b := &bench{w: &w, c: c, base: time.Now()}
	b.clock = calibrateClock(b.base)
	fmt.Fprintf(stdout, "machine: %s\n", machine())
	if c.trace == 1 {
		fmt.Fprintf(stdout, "workload %s, seed %d, %d workers, %ds timed: %s\n", w.name, c.seed, c.workers, c.seconds, w.why)
		return b.traced(stdout)
	}
	fmt.Fprintf(stdout, "workload %s, seed %d, %d-worker set-ups, %d-worker jobs, %ds timed: %s\n",
		w.name, c.seed, c.workers, timedWorkers, c.seconds, w.why)

	// Set up several times; every set-up ends with one warm-up job on
	// the full worker pool that fills the engine pool, and the last
	// set-up's inputs are timed. The timed jobs run on fewer workers
	// than the warm-ups, so the modelled outputs must not depend on the
	// worker count. A reference measurement brackets every set-up.
	var in *inputs
	var setups, rawSetups []float64
	r := measureRef()
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		if in, err = w.setup(c.seed, nil); err != nil {
			return err
		}
		b.job(in, c.workers)
		t := time.Since(t0).Seconds()
		next := measureRef()
		setups = append(setups, scaled(t, (r.wall+next.wall)/2))
		rawSetups = append(rawSetups, t)
		r = next
	}
	samples := b.timed(in, timedWorkers, time.Duration(c.seconds)*time.Second, nil)
	if !b.refSet {
		return fmt.Errorf("no job completed: %s", strings.Join(b.problems, "; "))
	}

	m := b.refModel
	wall := median(field(samples, func(s sample) float64 { return scaled(s.wall, s.refWall) }))
	values := map[string]float64{
		"setup_s":            median(setups),
		"wall_s":             wall,
		"cpu_s":              median(field(samples, func(s sample) float64 { return scaled(s.cpu, s.refCPU) })),
		"sim_blocks_per_s":   float64(samples[0].blocks) / wall,
		"alloc_mb":           median(field(samples, func(s sample) float64 { return s.alloc })) / (1 << 20),
		"max_rss_mb":         median(field(samples, func(s sample) float64 { return s.rss })),
		"sim_p50_kcycles":    m.P50,
		"sim_p99_kcycles":    m.P99,
		"sim_miss_frac":      m.MissFrac,
		"sim_req_per_mcycle": m.ReqPerMcycle,
	}
	var metrics []metric
	for _, e := range endToEnd {
		metrics = append(metrics, metric{e.name, values[e.name], e.unit})
	}
	fmt.Fprintf(stdout, "%d timed jobs, %d jobs in all (%d set-up warm-ups)\n", len(samples), b.attempted, setupRounds)
	fmt.Fprintf(stdout, "raw job wall s: %.4g\nreference pass s around each job: %.4g\nraw set-up s: %.4g\n",
		field(samples, func(s sample) float64 { return s.wall }),
		field(samples, func(s sample) float64 { return s.refWall }), rawSetups)
	printTable(stdout, append(metrics,
		metric{"raw_wall_s", median(field(samples, func(s sample) float64 { return s.wall })), "s"},
		metric{"raw_cpu_s", median(field(samples, func(s sample) float64 { return s.cpu })), "s"},
		metric{"failed_frac", float64(b.failed) / float64(b.attempted), "frac"}))
	fmt.Fprintf(stdout, "sim latency over %d served of %d offered requests (%d beyond p99)\n", m.Served, m.Offered, m.Served/100)
	return b.result(stdout, metrics)
}

// job runs one untimed job, checks it, and tallies the outcome.
func (b *bench) job(in *inputs, workers int) {
	out, err := in.job(workers, nil)
	b.verify(out, err, workers, false)
}

// verify checks one job's outputs against the output checks and the
// reference job, and tallies the outcome.
func (b *bench) verify(out *output, err error, workers int, traced bool) bool {
	b.attempted++
	var probs problems
	if err != nil {
		probs.addf("job: %v", err)
	} else {
		probs = check(out)
		fp := fingerprint(out)
		switch {
		case !b.refSet && len(probs) == 0:
			b.refSet, b.ref, b.refModel = true, fp, modelledOf(out)
			if b.c.trace == 1 {
				b.refOut = out
			}
		case b.refSet && fp != b.ref:
			probs.addf("modelled outputs differ from the reference job (%d workers, traced %v)", workers, traced)
		}
	}
	if len(probs) > 0 {
		b.failed++
		if len(b.problems) < maxProblems {
			b.problems = append(b.problems, probs...)
		}
		for _, pr := range probs {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", pr)
		}
		return false
	}
	return true
}

// timed runs jobs on the given number of workers back to back until d
// has elapsed (at least one), measuring each from outside: wall and CPU
// time, bytes allocated, garbage collections and peak resident set,
// with a reference measurement before and after it. The heap is
// collected before every job so that one job's garbage is not charged
// to the next.
func (b *bench) timed(in *inputs, workers int, d time.Duration, probeFor func(i int) *probe) []sample {
	var out []sample
	start := time.Now()
	r := measureRef()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		var p *probe
		if probeFor != nil {
			p = probeFor(i)
		}
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		var ru0, ru1 syscall.Rusage
		runtime.ReadMemStats(&ms0)
		resetPeakRSS()
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // zero CPU time if unavailable
		t0 := time.Now()
		o, err := in.job(workers, p)
		wall := time.Since(t0).Seconds()
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
		rss := peakRSSMiB()
		runtime.ReadMemStats(&ms1)
		next := measureRef()
		b.verify(o, err, workers, p != nil)
		s := sample{
			wall:      wall,
			cpu:       cpuSeconds(ru1) - cpuSeconds(ru0),
			refWall:   (r.wall + next.wall) / 2,
			refCPU:    (r.cpu + next.cpu) / 2,
			rss:       rss,
			alloc:     float64(ms1.TotalAlloc - ms0.TotalAlloc),
			gcs:       float64(ms1.NumGC - ms0.NumGC),
			gcPauseMs: float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
			probe:     p,
		}
		if p != nil {
			s.out = o // traced jobs keep their outputs for the layer metrics
		}
		if o != nil {
			for _, r := range o.runs {
				s.blocks += int64(r.res.MBCount + r.res.CBCount)
				s.splits += int64(r.res.Splits)
			}
		}
		out = append(out, s)
		r = next
	}
	return out
}

func cpuSeconds(ru syscall.Rusage) float64 {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

type metric struct {
	name  string
	value float64
	unit  string
}

func printTable(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", m.name, m.value, m.unit)
	}
}

// result prints the closing JSON line.
func (b *bench) result(w io.Writer, ms []metric) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	body := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, map[string]value{}}
	for _, m := range ms {
		body.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(body)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func field(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// machine identifies the host and build a result was measured on.
func machine() string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// writeSpans dumps every probe's spans as JSON into the output
// directory and returns the file's path.
func (b *bench) writeSpans(probes []*probe) (string, error) {
	type dump struct {
		Label string `json:"label"`
		Spans []span `json:"spans"`
	}
	body := struct {
		Machine  string `json:"machine"`
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Runs     []dump `json:"runs"`
	}{machine(), b.w.name, b.c.seed, nil}
	for _, p := range probes {
		body.Runs = append(body.Runs, dump{p.label, append(append([]span(nil), p.spans...), p.simSpans()...)})
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", b.w.name, b.c.seed))
	data, err := json.Marshal(body)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
