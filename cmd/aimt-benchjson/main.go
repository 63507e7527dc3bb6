// Command aimt-benchjson converts `go test -bench` output into a
// machine-readable JSON report, diffs any two recorded runs (the CI
// bench gate), and appends bench results to a run store.
//
//	go test -run '^$' -bench Throughput -benchmem ./... | aimt-benchjson -out BENCH_9.json
//	aimt-benchjson -diff -noise 2 testdata/bench_baseline.json bench.json
//	aimt-benchjson -diff runs/#run-000003 runs/          # store runs (dir[#id], default latest)
//	aimt-benchjson -in bench.txt -runstore runs/         # append to run history
//
// In -diff mode both arguments name a run: a BENCH_*.json report
// file, or a run-store directory with an optional #runID fragment
// (latest run when omitted). Every shared metric is compared in its
// unit's bad direction against the -noise threshold, the table is
// printed, and the exit status is non-zero when anything regressed
// beyond it or an old metric is missing from the new run. `make
// benchcheck` is this mode at 2× against the checked-in baseline: a
// deliberately generous gate that only trips on gross ns/op or
// allocs/op regressions (CI runners vary; small drift is expected).
// A benchmark the baseline records no allocs/op for is not
// allocation-gated; one recorded at 0 allocs/op fails on any
// allocation.
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
	"regexp"
	"strconv"
	"strings"

	"aimt/internal/runstore"
)

var procSuffix = regexp.MustCompile(`-\d+$`)

// parse converts `go test -bench` text into a report. BlocksPerSec is
// derived from the blocks/op metric the simulator benchmarks report,
// giving the headline engine-throughput number directly.
func parse(r io.Reader) (*runstore.BenchReport, error) {
	rep := &runstore.BenchReport{}
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := runstore.BenchBenchmark{
			Pkg:        pkg,
			Name:       procSuffix.ReplaceAllString(strings.TrimPrefix(fields[0], "Benchmark"), ""),
			Iterations: iters,
		}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = val
			case "B/op":
				b.BytesPerOp = &val
			case "allocs/op":
				b.AllocsPerOp = &val
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = val
			}
		}
		if blocks, ok := b.Metrics["blocks/op"]; ok && b.NsPerOp > 0 {
			b.BlocksPerSec = blocks / (b.NsPerOp * 1e-9)
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found in input")
	}
	return rep, nil
}

// loadRunArg resolves one -diff argument: a run-store directory
// (optionally "dir#runID", latest run by default) or a BENCH-style
// JSON report file.
func loadRunArg(arg string) (runstore.Run, error) {
	path, id, _ := strings.Cut(arg, "#")
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		st, err := runstore.Open(path)
		if err != nil {
			return runstore.Run{}, err
		}
		if id != "" {
			r, ok := st.Get(id)
			if !ok {
				return runstore.Run{}, fmt.Errorf("%s: no run %q", path, id)
			}
			return r, nil
		}
		runs := st.Runs()
		if len(runs) == 0 {
			return runstore.Run{}, fmt.Errorf("%s: empty run store", path)
		}
		return runs[len(runs)-1], nil
	}
	if id != "" {
		return runstore.Run{}, fmt.Errorf("%s: #runID selection needs a run-store directory", arg)
	}
	rep, err := runstore.LoadBenchReport(path)
	if err != nil {
		return runstore.Run{}, err
	}
	return rep.Run(strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))), nil
}

// diff renders the metric-by-metric comparison and fails on any
// regression beyond the noise threshold.
func diff(oldArg, newArg string, noise float64) error {
	old, err := loadRunArg(oldArg)
	if err != nil {
		return err
	}
	new, err := loadRunArg(newArg)
	if err != nil {
		return err
	}
	d := runstore.DiffRuns(old, new, noise)
	if err := d.WriteText(os.Stdout); err != nil {
		return err
	}
	if d.Regressed() {
		return fmt.Errorf("%d metric(s) regressed beyond %.2fx noise", len(d.Regressions()), noise)
	}
	return nil
}

func main() {
	var (
		in       = flag.String("in", "", "bench output file (empty = stdin)")
		out      = flag.String("out", "", "write parsed JSON report to this file (empty = stdout unless -runstore)")
		diffMode = flag.Bool("diff", false, "diff two runs (args: old new; BENCH json files or storeDir[#runID]) and fail on regressions beyond -noise")
		noise    = flag.Float64("noise", 1.5, "with -diff, multiplicative drift tolerated before a change counts as a regression")
		storeDir = flag.String("runstore", "", "append the parsed bench report to the run store under this directory")
		runID    = flag.String("id", "", "with -runstore, record under this run ID (empty = assigned)")
	)
	flag.Parse()

	var err error
	if *diffMode {
		if flag.NArg() != 2 {
			err = errors.New("-diff needs exactly two arguments: old new")
		} else {
			err = diff(flag.Arg(0), flag.Arg(1), *noise)
		}
	} else {
		err = run(*in, *out, *storeDir, *runID)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "aimt-benchjson: %v\n", err)
		os.Exit(1)
	}
}

func run(in, out, storeDir, runID string) error {
	src := io.Reader(os.Stdin)
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	rep, err := parse(src)
	if err != nil {
		return err
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	switch {
	case out != "":
		if err := os.WriteFile(out, buf, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", out, len(rep.Benchmarks))
	case storeDir == "":
		os.Stdout.Write(buf)
	}

	if storeDir != "" {
		st, err := runstore.Open(storeDir)
		if err != nil {
			return err
		}
		r := rep.Run(runID)
		r.Commit = runstore.CurrentCommit()
		stored, err := st.Append(r)
		if err != nil {
			return err
		}
		fmt.Printf("runstore: appended %s (%d metrics) to %s\n", stored.ID, len(stored.Metrics), storeDir)
	}
	return nil
}
