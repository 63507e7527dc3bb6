package aimt

import (
	"fmt"
	"reflect"
	"testing"

	"aimt/internal/cluster"
	"aimt/internal/sched"
)

// Native fuzz targets. `go test` always replays the seed corpus under
// testdata/fuzz/; `go test -fuzz FuzzCompile` (or FuzzStream) explores
// from there. Both targets accept arbitrary inputs: invalid shapes
// must surface as builder/compiler errors, never panics, and every
// accepted input must produce a consistent compile or an
// invariant-clean simulation.

// fuzzNetwork decodes a byte string into a layer chain: each byte
// appends one layer, its value selecting the type and size. Decoding
// is total — any byte sequence yields a construction attempt.
func fuzzNetwork(name string, inC, inH, inW uint8, spec []byte) (*Network, error) {
	b := NewNetwork(name, int(inC%8)+1, int(inH%32)+1, int(inW%32)+1)
	if len(spec) > 16 {
		spec = spec[:16]
	}
	for i, op := range spec {
		switch op % 5 {
		case 0:
			b.Conv(fmt.Sprintf("c%d", i), int(op/5)%8+1, 3, 1, 1)
		case 1:
			b.DWConv(fmt.Sprintf("d%d", i), 3, 1, 1)
		case 2:
			b.Pool(fmt.Sprintf("p%d", i), 2, 2, 0)
		case 3:
			b.FC(fmt.Sprintf("f%d", i), int(op/5)%32+1)
		case 4:
			b.GlobalPool(fmt.Sprintf("g%d", i))
		}
	}
	return b.Build()
}

// FuzzCompile drives random layer shapes through the network builder
// and the compiler: any input either errors cleanly or compiles to a
// valid table with positive iteration counts and non-negative block
// cycles.
func FuzzCompile(f *testing.F) {
	f.Add(uint8(3), uint8(32), uint8(32), uint8(1), []byte{0, 2, 3})
	f.Add(uint8(1), uint8(1), uint8(1), uint8(2), []byte{3, 3})
	f.Add(uint8(4), uint8(16), uint8(16), uint8(1), []byte{1, 4, 18})
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, inC, inH, inW, batch uint8, spec []byte) {
		net, err := fuzzNetwork("fuzz", inC, inH, inW, spec)
		if err != nil {
			return // invalid shape rejected by the builder: fine
		}
		cfg := Config{
			PEDim:        4,
			NumArrays:    4,
			FreqHz:       1_000_000_000,
			MemBandwidth: 1_000_000_000,
			WeightSRAM:   64 * 16,
			IOSRAM:       1 << 20,
			WeightBytes:  1,
			FillLatency:  2,
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("fixed config invalid: %v", err)
		}
		cn, err := Compile(net, cfg, int(batch%4)+1)
		if err != nil {
			return // compiler rejection: fine
		}
		if err := cn.Validate(); err != nil {
			t.Fatalf("compiled table fails its own validation: %v", err)
		}
		for _, l := range cn.Layers {
			if l.Iters <= 0 {
				t.Fatalf("layer %s: non-positive Iters %d", l.Name, l.Iters)
			}
			if l.MBCycles < 0 || l.CBCycles < 0 {
				t.Fatalf("layer %s: negative block cycles mb=%d cb=%d", l.Name, l.MBCycles, l.CBCycles)
			}
			if l.MBBlocks < 0 || l.MBBytes < 0 {
				t.Fatalf("layer %s: negative footprint blocks=%d bytes=%d", l.Name, l.MBBlocks, l.MBBytes)
			}
		}
		s := cn.Stats()
		if s.SubLayers <= 0 || s.MBCycles < 0 || s.CBCycles < 0 || s.WeightBytes < 0 {
			t.Fatalf("negative or empty stats: %+v", s)
		}
	})
}

// FuzzTransformerCompile drives random attention shapes — block,
// hidden, head, FFN, sequence and context counts, including the
// degenerate 0/1 cases — through the transformer builder and the
// compiler: any input either errors cleanly or compiles to a valid
// sub-layer table whose attention layers carry positive iteration
// counts and KV-cache-sized footprints.
func FuzzTransformerCompile(f *testing.F) {
	f.Add(uint8(2), uint8(64), uint8(4), uint8(128), uint8(16), uint8(16), uint8(128), uint8(1))
	f.Add(uint8(1), uint8(8), uint8(1), uint8(8), uint8(1), uint8(1), uint8(0), uint8(2))
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(1), uint8(12), uint8(3), uint8(24), uint8(1), uint8(200), uint8(32), uint8(3))
	f.Add(uint8(3), uint8(96), uint8(12), uint8(255), uint8(32), uint8(32), uint8(255), uint8(0))
	f.Fuzz(func(t *testing.T, blocks, hidden, heads, ffn, seq, ctx, vocab, batch uint8) {
		cfg := Config{
			PEDim:        4,
			NumArrays:    4,
			FreqHz:       1_000_000_000,
			MemBandwidth: 1_000_000_000,
			WeightSRAM:   64 * 16,
			IOSRAM:       1 << 20,
			WeightBytes:  1,
			FillLatency:  2,
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("fixed config invalid: %v", err)
		}
		check := func(net *Network) {
			cn, err := Compile(net, cfg, int(batch%4)+1)
			if err != nil {
				return // compiler rejection: fine
			}
			if err := cn.Validate(); err != nil {
				t.Fatalf("%s: compiled table fails its own validation: %v", net.Name, err)
			}
			for _, l := range cn.Layers {
				if l.Iters <= 0 {
					t.Fatalf("%s layer %s: non-positive Iters %d", net.Name, l.Name, l.Iters)
				}
				if l.MBCycles < 0 || l.CBCycles < 0 || l.MBBlocks < 0 || l.MBBytes < 0 {
					t.Fatalf("%s layer %s: negative cycles or footprint: %+v", net.Name, l.Name, l)
				}
			}
		}

		// Whole-stack path: raw values through the transformer config;
		// invalid shapes (zero dims, Hidden not divisible by Heads,
		// Context < SeqLen) must error, never panic.
		net, err := Transformer(TransformerConfig{
			Name:    "fuzz-tf",
			Blocks:  int(blocks % 4),
			Hidden:  int(hidden),
			Heads:   int(heads % 16),
			FFN:     int(ffn),
			OutProj: int(vocab),
			SeqLen:  int(seq),
			Context: int(ctx),
		})
		if err == nil {
			check(net)
		}

		// Bare-layer path: a single attention layer with unvalidated
		// shape fields exercises the nn validator directly.
		b := NewNetwork("fuzz-attn", int(hidden%64)+1, 1, 1)
		b.Attn("a0", int(hidden%64)+1, int(heads), int(ctx), int(seq))
		if net, err := b.Build(); err == nil {
			check(net)
		}
	})
}

// FuzzStream drives random arrival streams through every scheduler
// with the machine-model invariant checker on: arbitrary request
// sequences, gaps, and deadlines must keep the invariants green and
// finish every network after its arrival.
func FuzzStream(f *testing.F) {
	f.Add([]byte{0, 1, 2}, uint8(0))
	f.Add([]byte{5, 5, 5, 5}, uint8(7))
	f.Add([]byte{255, 0, 128, 64, 32}, uint8(11))
	f.Add([]byte{9}, uint8(12))
	f.Fuzz(func(t *testing.T, picks []byte, schedPick uint8) {
		if len(picks) == 0 {
			return
		}
		if len(picks) > 10 {
			picks = picks[:10]
		}
		cfg := scenarioConfig(t, 8)
		nets, arrivals, deadlines := fuzzMix(cfg, picks)
		table := sched.Table()
		p := table[int(schedPick)%len(table)]
		res, err := Run(cfg, nets, p.New(cfg, testWorkload{nets, deadlines}), RunOptions{
			CheckInvariants: true,
			Arrivals:        arrivals,
		})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for i, fin := range res.NetFinish {
			if fin <= arrivals[i] {
				t.Fatalf("%s: net %d finished at %d, arrival %d", p.Name, i, fin, arrivals[i])
			}
		}
		if res.MBCount <= 0 || res.CBCount <= 0 {
			t.Fatalf("%s: empty execution: %d MBs %d CBs", p.Name, res.MBCount, res.CBCount)
		}
	})
}

// FuzzAdmission drives random overload scenarios — arbitrary arrival
// patterns, priority mixes, cluster sizes and SLO slacks — through the
// cluster's one dispatch loop with the machine-model invariant checker
// on. The routing policy is drawn from the full routing table
// (predictive included), the per-chip scheduler from the scheduler
// table, and admission control is fuzzed off as well as on, alongside
// autoscaling. It asserts the admission conservation laws: every
// request is either routed or shed, shed requests only come from the
// lowest priority band and never appear in any chip's completions,
// admitted + shed == offered, and the shed mask exists exactly when
// admission, autoscaling or predictive routing is on.
func FuzzAdmission(f *testing.F) {
	// The trailing two arguments pick the per-chip scheduler (12 is
	// AI-MT+Prio) and the control plane (even: admission on). The
	// checked-in corpus adds predictive routing, other per-chip
	// schedulers and admission off.
	f.Add([]byte{3, 1, 9}, uint8(1), uint8(1), uint8(4), uint8(12), uint8(0))
	f.Add([]byte{0}, uint8(0), uint8(0), uint8(0), uint8(12), uint8(0))
	f.Add([]byte{200, 50, 7, 7, 1}, uint8(2), uint8(2), uint8(11), uint8(12), uint8(0))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9}, uint8(3), uint8(1), uint8(255), uint8(12), uint8(0))
	f.Fuzz(func(t *testing.T, picks []byte, chipsPick, prioPick, sloPick, schedPick, ctlPick uint8) {
		if len(picks) == 0 {
			return
		}
		cfg := scenarioConfig(t, 8)
		pick := func(i int) byte { return picks[i%len(picks)] }
		an := NewNetwork("adm-hi", 1, 4, 4)
		an.FC("f1", int(pick(0)%16)+1)
		bn := NewNetwork("adm-lo", 2, 4, 4)
		bn.FC("c1", int(pick(1)%32)+1)
		bn.FC("c2", 4)
		anet, err := an.Build()
		if err != nil {
			return
		}
		bnet, err := bn.Build()
		if err != nil {
			return
		}
		classes := []ServeClass{
			{Name: "hi", Net: anet, Weight: float64(pick(2)%3) + 1,
				Slack: float64(sloPick%6) + 1, Priority: int(prioPick % 3)},
			{Name: "lo", Net: bnet, Weight: float64(pick(3)%4) + 1,
				Slack: float64(sloPick%9) + 1},
		}
		var seed int64
		for _, b := range picks {
			seed = seed*31 + int64(b)
		}
		process := ServePoisson
		if pick(4)%2 == 1 {
			process = ServeBursty
		}
		stream, err := NewServeStream(cfg, classes, ServeStreamOptions{
			Requests: int(pick(5)%48) + 8,
			MeanGap:  Cycles(pick(6)%200) + 1,
			Process:  process,
			Seed:     seed,
		})
		if err != nil {
			return
		}
		chips := int(chipsPick%4) + 1
		pols := cluster.AllPolicies()
		pol := pols[int(pick(7))%len(pols)]
		specs := ServeSchedulers()
		spec := specs[int(schedPick)%len(specs)]
		ctl := ClusterControl{
			Admission: ctlPick%2 == 0,
			Autoscale: pick(8)%2 == 1,
			MinChips:  int(pick(9)) % (chips + 1),
		}
		res, err := ClusterServe(cfg, stream, spec, pol.New(), ClusterOptions{
			Chips:           chips,
			CheckInvariants: true,
			Control:         ctl,
		})
		if err != nil {
			t.Fatalf("%s/%s x%d: %v", spec.Name, pol.Name, chips, err)
		}
		if wantMask := ctl.Admission || ctl.Autoscale || pol.Name == "predictive"; (res.Shed != nil) != wantMask {
			t.Fatalf("%s %+v: shed mask present %v, want %v", pol.Name, ctl, res.Shed != nil, wantMask)
		}
		if !ctl.Admission && res.ShedCount != 0 {
			t.Fatalf("admission off but %d requests shed", res.ShedCount)
		}
		offered := len(stream.Nets)
		minPrio := stream.ClassPriority[0]
		for _, p := range stream.ClassPriority[1:] {
			if p < minPrio {
				minPrio = p
			}
		}
		perChip := make([]int, chips)
		shed := 0
		for i, c := range res.Assignment {
			isShed := res.Shed != nil && res.Shed[i]
			if isShed != (c == -1) {
				t.Fatalf("request %d: shed=%v but chip %d", i, isShed, c)
			}
			if isShed {
				shed++
				if p := stream.ClassPriority[stream.ClassOf[i]]; p != minPrio {
					t.Fatalf("request %d of priority %d shed; lowest band is %d", i, p, minPrio)
				}
				continue
			}
			if c < 0 || c >= chips {
				t.Fatalf("request %d on invalid chip %d of %d", i, c, chips)
			}
			perChip[c]++
		}
		if shed != res.ShedCount {
			t.Fatalf("shed mask counts %d, result says %d", shed, res.ShedCount)
		}
		admitted := 0
		for c, cr := range res.ChipResults {
			n := 0
			if cr != nil {
				n = len(cr.NetFinish)
			}
			if n != perChip[c] {
				t.Fatalf("chip %d completed %d, routed %d", c, n, perChip[c])
			}
			admitted += n
		}
		if admitted+res.ShedCount != offered {
			t.Fatalf("admitted %d + shed %d != offered %d", admitted, res.ShedCount, offered)
		}
		if got := int(res.Agg.Latency.Count()) + res.Agg.Shed; got != offered {
			t.Fatalf("report served %d + shed %d != offered %d", res.Agg.Latency.Count(), res.Agg.Shed, offered)
		}
	})
}

// fuzzMix decodes picks into a mix of small single-layer networks
// (compute-heavy, memory-heavy, balanced), one per pick, with
// staggered arrivals and per-network deadlines.
func fuzzMix(cfg Config, picks []byte) (nets []*Compiled, arrivals, deadlines []Cycles) {
	protos := []*Compiled{
		block("comp", cfg, 2, 9, 3, 1),
		block("mem", cfg, 9, 2, 3, 2),
		block("mix", cfg, 5, 5, 2, 1),
	}
	var at Cycles
	for _, b := range picks {
		nets = append(nets, protos[int(b)%len(protos)])
		at += Cycles(b) * 7
		arrivals = append(arrivals, at)
		deadlines = append(deadlines, at+Cycles(b%5)*100+1)
	}
	return nets, arrivals, deadlines
}

// fuzzHostConfig is scenarioConfig plus a host (PCIe) link drawn from
// pick — none, or 1-3 bytes per cycle — so input transfers take real
// time and the host path is part of what the fuzzers exercise.
func fuzzHostConfig(t *testing.T, pick byte) Config {
	cfg := scenarioConfig(t, 8)
	cfg.HostBandwidth = int64(pick%4) * cfg.FreqHz
	return cfg
}

// fuzzServeStream decodes picks into a small serving stream over two
// tiny classes. The second is transformer-shaped — a prefill plus a
// drawn number (possibly zero) of chained decode steps — so streams
// exercise ChainAfter as well as plain single-phase requests.
func fuzzServeStream(cfg Config, picks []byte) (*ServeStream, error) {
	pick := func(i int) byte { return picks[i%len(picks)] }
	a := NewNetwork("fz-a", 1, 4, 4)
	a.FC("f1", int(pick(0)%16)+1)
	b := NewNetwork("fz-b", 2, 4, 4)
	b.FC("c1", int(pick(1)%32)+1)
	b.FC("c2", 4)
	d := NewNetwork("fz-d", 4, 1, 1)
	d.FC("d1", int(pick(2)%8)+1)
	var nets [3]*Network
	for i, bld := range []*NetworkBuilder{a, b, d} {
		n, err := bld.Build()
		if err != nil {
			return nil, err
		}
		nets[i] = n
	}
	var seed int64
	for _, p := range picks {
		seed = seed*31 + int64(p)
	}
	process := ServePoisson
	if pick(3)%2 == 1 {
		process = ServeBursty
	}
	return NewServeStream(cfg, []ServeClass{
		{Name: "a", Net: nets[0], Weight: float64(pick(4)%3) + 1},
		{Name: "b", Net: nets[1], Weight: float64(pick(5)%3) + 1,
			DecodeNet: nets[2], Decode: int(pick(6) % 4)},
	}, ServeStreamOptions{
		Requests: int(pick(7)%24) + 4,
		MeanGap:  Cycles(pick(8)%200) + 1,
		Process:  process,
		Seed:     seed,
	})
}

// FuzzSnapshotRestore cuts a run at an arbitrary cycle: a small mix
// (streamPick even) or serving stream (odd) runs under a scheduler
// from the table to the cut, is snapshotted, runs to completion, is
// restored to the cut and runs to completion again. Both completions
// must equal the uninterrupted run bit for bit, with the machine-model
// invariant checker on throughout. The cut is drawn up to twice the
// makespan, so snapshots of a finished run are covered too.
func FuzzSnapshotRestore(f *testing.F) {
	f.Add([]byte{0, 1, 2}, uint8(0), uint8(8), uint8(64))
	f.Add([]byte{5, 5, 5, 5}, uint8(1), uint8(14), uint8(200))
	f.Add([]byte{255, 0, 128, 64, 32}, uint8(2), uint8(10), uint8(1))
	f.Add([]byte{9, 3, 7, 1, 2, 8, 4, 6, 5}, uint8(3), uint8(12), uint8(128))
	f.Fuzz(func(t *testing.T, picks []byte, streamPick, schedPick, cutPick uint8) {
		if len(picks) == 0 {
			return
		}
		if len(picks) > 10 {
			picks = picks[:10]
		}
		cfg := fuzzHostConfig(t, picks[len(picks)-1])
		pickIdx := int(schedPick) % len(sched.Table())
		entry := sched.Table()[pickIdx]
		var nets []*Compiled
		var mk func() Scheduler
		opts := RunOptions{CheckInvariants: true}
		if streamPick%2 == 0 {
			var deadlines []Cycles
			nets, opts.Arrivals, deadlines = fuzzMix(cfg, picks)
			mk = func() Scheduler { return entry.New(cfg, testWorkload{nets, deadlines}) }
		} else {
			s, err := fuzzServeStream(cfg, picks)
			if err != nil {
				return
			}
			nets, opts.Arrivals, opts.ChainAfter = s.Nets, s.Arrivals, s.ChainAfter
			spec := ServeSchedulers()[pickIdx] // entry, adapted to streams
			mk = func() Scheduler { return spec.New(cfg, s) }
		}

		ref, err := Run(cfg, nets, mk(), opts)
		if err != nil {
			t.Fatalf("%s: reference run: %v", entry.Name, err)
		}
		cut := ref.Makespan * Cycles(cutPick) / 128
		eng, err := NewEngine(cfg, nets, mk(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.StepUntil(cut); err != nil {
			t.Fatalf("%s: StepUntil(%d): %v", entry.Name, cut, err)
		}
		snap := eng.Snapshot(nil)
		resumed, err := eng.Run()
		if err != nil {
			t.Fatalf("%s cut %d: resumed run: %v", entry.Name, cut, err)
		}
		if !reflect.DeepEqual(resumed, ref) {
			t.Fatalf("%s cut %d: resumed run diverged:\n got %+v\nwant %+v", entry.Name, cut, resumed, ref)
		}
		if err := eng.Restore(snap); err != nil {
			t.Fatalf("%s cut %d: Restore: %v", entry.Name, cut, err)
		}
		replayed, err := eng.Run()
		if err != nil {
			t.Fatalf("%s cut %d: replayed run: %v", entry.Name, cut, err)
		}
		if !reflect.DeepEqual(replayed, ref) {
			t.Fatalf("%s cut %d: restored replay diverged:\n got %+v\nwant %+v", entry.Name, cut, replayed, ref)
		}
	})
}

// FuzzRequestSpans attributes a small serving stream's requests under
// a scheduler from the table: every span's segments must sum exactly
// to its latency, and its intervals must tile [arrive, finish) with
// no gaps or overlaps (assertSpanReconciles), one span per request.
func FuzzRequestSpans(f *testing.F) {
	f.Add([]byte{0, 1, 2}, uint8(0))
	f.Add([]byte{5, 5, 5, 5, 1, 1, 3}, uint8(8))
	f.Add([]byte{255, 0, 128, 64, 32, 7, 9}, uint8(10))
	f.Add([]byte{9, 3, 7, 1, 2, 8, 4, 6, 5}, uint8(14))
	f.Fuzz(func(t *testing.T, picks []byte, schedPick uint8) {
		if len(picks) == 0 {
			return
		}
		if len(picks) > 10 {
			picks = picks[:10]
		}
		cfg := fuzzHostConfig(t, picks[len(picks)-1])
		s, err := fuzzServeStream(cfg, picks)
		if err != nil {
			return
		}
		specs := ServeSchedulers()
		spec := specs[int(schedPick)%len(specs)]
		col := NewRequestTraceCollector(len(s.Nets))
		res, err := Run(cfg, s.Nets, spec.New(cfg, s), RunOptions{
			Arrivals:        s.Arrivals,
			ChainAfter:      s.ChainAfter,
			CheckInvariants: true,
			Tracer:          col,
		})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		spans := BuildRequestSpans(s, res, spec.Name, col)
		if len(spans) != s.Requests {
			t.Fatalf("%s: %d spans for %d requests", spec.Name, len(spans), s.Requests)
		}
		for _, sp := range spans {
			assertSpanReconciles(t, sp)
		}
	})
}
