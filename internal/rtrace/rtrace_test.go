package rtrace

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"aimt/internal/arch"
)

// sweepAttribute runs the sweep on copies of the records and shapes
// its result as Build does: nil when no segment or interval.
func sweepAttribute(a, f arch.Cycles, pe, mem, host []rec) ([]Segment, []Interval) {
	var w sweep
	sums := w.attribute(a, f, slices.Clone(pe), slices.Clone(mem), slices.Clone(host))
	return nonEmpty(appendSegments(nil, &sums)), nonEmpty(w.ivs)
}

// oracleAttributeRecs runs the oracle on the same records.
func oracleAttributeRecs(a, f arch.Cycles, pe, mem, host []rec) ([]Segment, []Interval) {
	var ope []peIval
	for _, r := range pe {
		ope = append(ope, peIval{r.start, r.end, int(r.layer), int(r.iter), r.split})
	}
	ivals := func(rs []rec) []ival {
		var out []ival
		for _, r := range rs {
			out = append(out, ival{r.start, r.end})
		}
		return out
	}
	return oracleAttribute(a, f, ope, ivals(mem), ivals(host))
}

func checkAgainstOracle(t *testing.T, name string, a, f arch.Cycles, pe, mem, host []rec) {
	t.Helper()
	gs, gi := sweepAttribute(a, f, pe, mem, host)
	ws, wi := oracleAttributeRecs(a, f, pe, mem, host)
	if !reflect.DeepEqual(gs, ws) || !reflect.DeepEqual(gi, wi) {
		t.Fatalf("%s: window [%d,%d) pe=%v mem=%v host=%v\nsweep:  %v %v\noracle: %v %v",
			name, a, f, pe, mem, host, gs, gi, ws, wi)
	}
}

func peRec(start, end arch.Cycles, layer, iter int32, split bool) rec {
	return rec{start: start, end: end, layer: layer, iter: iter, kind: recPE, split: split}
}

func ivRec(kind uint8, start, end arch.Cycles) rec {
	return rec{start: start, end: end, kind: kind}
}

// TestAttributeEdgeCases pins the cases the sweep must get exactly
// right against the sort-based oracle.
func TestAttributeEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name      string
		a, f      arch.Cycles
		pe        []rec
		mem, host []rec
	}{
		{name: "empty kind lists", a: 0, f: 50},
		{name: "zero-length window", a: 20, f: 20,
			pe: []rec{peRec(10, 30, 0, 0, false)}, mem: []rec{ivRec(recMem, 0, 25)}},
		{name: "inverted window", a: 30, f: 20, pe: []rec{peRec(10, 40, 0, 0, false)}},
		{name: "intervals straddling both ends", a: 10, f: 40,
			pe:   []rec{peRec(0, 15, 0, 0, false), peRec(35, 60, 0, 1, false)},
			mem:  []rec{ivRec(recMem, 5, 12), ivRec(recMem, 30, 45)},
			host: []rec{ivRec(recHost, 0, 11), ivRec(recHost, 39, 50)}},
		{name: "interval covering the whole window", a: 10, f: 20,
			mem: []rec{ivRec(recMem, 0, 100)}},
		{name: "nested preemption windows", a: 0, f: 60,
			pe: []rec{
				peRec(0, 10, 0, 0, true),  // halted: preempted 10..40
				peRec(10, 20, 1, 0, true), // halted: preempted 20..25
				peRec(25, 30, 1, 0, false),
				peRec(40, 50, 0, 0, false),
			},
			mem: []rec{ivRec(recMem, 5, 45)}},
		{name: "partly overlapping preemption windows", a: 0, f: 60,
			pe: []rec{
				peRec(0, 10, 0, 0, true),  // preempted 10..20
				peRec(12, 15, 1, 0, true), // preempted 15..35
				peRec(20, 30, 0, 0, false),
				peRec(35, 40, 1, 0, false),
			}},
		{name: "halt never resumed", a: 0, f: 30,
			pe: []rec{peRec(0, 10, 2, 3, true)}, host: []rec{ivRec(recHost, 15, 20)}},
		{name: "halt resumed after the window", a: 0, f: 30,
			pe: []rec{peRec(0, 10, 2, 3, true), peRec(40, 45, 2, 3, false)}},
		{name: "halt resumed twice over", a: 0, f: 80,
			pe: []rec{
				peRec(0, 10, 0, 0, true),
				peRec(20, 25, 0, 0, true),
				peRec(40, 50, 0, 0, false),
			}},
		{name: "halt before the window", a: 50, f: 80,
			pe: []rec{peRec(0, 10, 0, 0, true), peRec(60, 70, 0, 0, false)}},
		{name: "adjacent intervals of one kind", a: 0, f: 30,
			pe: []rec{peRec(0, 10, 0, 0, false), peRec(10, 20, 0, 1, false)}},
		{name: "out of order and overlapping", a: 0, f: 100,
			pe: []rec{
				peRec(50, 70, 0, 0, false),
				peRec(10, 30, 0, 0, true),
				peRec(20, 40, 1, 0, true),
				peRec(25, 26, 0, 0, false),
				peRec(60, 90, 1, 0, false),
			},
			mem:  []rec{ivRec(recMem, 40, 60), ivRec(recMem, 0, 45), ivRec(recMem, 44, 50)},
			host: []rec{ivRec(recHost, 90, 95), ivRec(recHost, 0, 5)}},
	} {
		checkAgainstOracle(t, tc.name, tc.a, tc.f, tc.pe, tc.mem, tc.host)
	}
}

// randomRecs draws up to max records of one kind. Serial lists look
// like one engine's output — time-ordered, disjoint, sometimes
// adjacent; the others overlap and arrive in any order. Both spill
// over the window [a, f) on either side.
func randomRecs(rng *rand.Rand, kind uint8, a, f arch.Cycles, max int, serial bool) []rec {
	n := rng.Intn(max + 1)
	span := int(f-a) + 80
	if span < 80 {
		span = 80
	}
	var out []rec
	t := a - arch.Cycles(rng.Intn(40))
	for i := 0; i < n; i++ {
		var r rec
		if serial {
			t += arch.Cycles(rng.Intn(12))
			r.start = t
			t += 1 + arch.Cycles(rng.Intn(20))
			r.end = t
		} else {
			r.start = a - 40 + arch.Cycles(rng.Intn(span))
			r.end = r.start + 1 + arch.Cycles(rng.Intn(30))
		}
		r.kind = kind
		if kind == recPE {
			r.layer, r.iter = int32(rng.Intn(3)), int32(rng.Intn(2))
			r.split = rng.Intn(3) == 0
		}
		out = append(out, r)
	}
	return out
}

// TestAttributeMatchesOracle checks the sweep against the sort-based
// oracle on randomized interval sets: serial and arbitrary lists, split
// halts with overlapping preemption windows, intervals straddling the
// window, zero-length and inverted windows, and empty kind lists.
func TestAttributeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	overlapping := 0
	for i := 0; i < 20000; i++ {
		a := arch.Cycles(rng.Intn(100))
		f := a + 1 + arch.Cycles(rng.Intn(200))
		switch rng.Intn(10) {
		case 0:
			f = a
		case 1:
			f = a - arch.Cycles(rng.Intn(5))
		}
		serial := rng.Intn(4) != 0
		pe := randomRecs(rng, recPE, a, f, 12, serial)
		mem := randomRecs(rng, recMem, a, f, 10, serial)
		host := randomRecs(rng, recHost, a, f, 3, serial)
		checkAgainstOracle(t, fmt.Sprintf("case %d", i), a, f, pe, mem, host)
		if serial && overlappingWindows(pe) {
			overlapping++
		}
	}
	if overlapping < 100 {
		t.Errorf("only %d serial cases had overlapping preemption windows", overlapping)
	}
}

// overlappingWindows reports whether two split halts of a serial PE
// list are pending at once, i.e. their preemption windows overlap.
func overlappingWindows(pe []rec) bool {
	pending := map[[2]int32]bool{}
	for _, r := range pe {
		delete(pending, [2]int32{r.layer, r.iter})
		if r.split {
			pending[[2]int32{r.layer, r.iter}] = true
			if len(pending) > 1 {
				return true
			}
		}
	}
	return false
}

// randomInput draws a stream of n entries grouped into contiguous
// requests, with shed, truncated and zero-length entries.
func randomInput(rng *rand.Rand, n int) Input {
	in := Input{
		Run:          "rand",
		Classes:      []string{"cnn", "chat"},
		ClassOf:      make([]int, n),
		StreamArrive: make([]arch.Cycles, n),
		Deadlines:    make([]arch.Cycles, n),
		Arrive:       make([]arch.Cycles, n),
		Finish:       make([]arch.Cycles, n),
	}
	if rng.Intn(2) == 0 {
		in.ReqOf = make([]int, n)
		in.Phases = make([]string, n)
		req := 0
		for i := range in.ReqOf {
			if i > 0 && rng.Intn(3) == 0 {
				req++
			}
			in.ReqOf[i] = req
			in.Phases[i] = []string{"prefill", "decode"}[rng.Intn(2)]
		}
	}
	if rng.Intn(2) == 0 {
		in.Chip, in.ETA, in.Shed = make([]int, n), make([]arch.Cycles, n), make([]bool, n)
	}
	for i := 0; i < n; i++ {
		in.ClassOf[i] = rng.Intn(2)
		a := arch.Cycles(rng.Intn(300))
		in.StreamArrive[i], in.Arrive[i] = a, a
		in.Finish[i] = a + arch.Cycles(rng.Intn(300))
		in.Deadlines[i] = a + arch.Cycles(rng.Intn(400))
		switch rng.Intn(12) {
		case 0:
			in.Finish[i] = in.Arrive[i] // zero-length entry
		case 1:
			in.Finish[i] = 0 // truncated run
		}
		if in.Chip != nil {
			in.Chip[i], in.ETA[i], in.Shed[i] = rng.Intn(4), arch.Cycles(rng.Intn(900)), rng.Intn(8) == 0
		}
	}
	return in
}

// collectorPair drives the flat-log collector and the oracle's
// per-instance collector through the same calls.
type collectorPair struct {
	c *Collector
	o *oracleCollector
}

func newCollectorPair(nets int) collectorPair {
	return collectorPair{NewCollector(nets), newOracleCollector(nets)}
}

func (p collectorPair) event(rng *rand.Rand, nets int) {
	net := rng.Intn(nets+2) - 1 // out-of-range instances are dropped
	start := arch.Cycles(rng.Intn(600))
	end := start + arch.Cycles(rng.Intn(40)) // end == start is dropped
	layer, iter := rng.Intn(3), rng.Intn(2)
	var engine, name string
	switch rng.Intn(8) {
	case 0, 1, 2:
		engine, name = "pe", "CB:conv"
	case 3:
		engine, name = "pe", "CB(split):conv"
	case 4, 5:
		engine, name = "mem", "MB:conv"
	case 6:
		engine, name = "host", "host-in"
		layer, iter = -1, -1
	default:
		engine, name = "dma", "unknown" // unknown engines are dropped
	}
	p.c.Event(engine, name, net, layer, iter, start, end)
	p.o.Event(engine, name, net, layer, iter, start, end)
}

func randomRemap(rng *rand.Rand, sub, nets int) []int {
	remap := make([]int, rng.Intn(sub+2))
	for i := range remap {
		remap[i] = rng.Intn(nets+2) - 1
	}
	return remap
}

// TestBuildMatchesOracle builds spans from randomized collectors —
// own events, merges with remaps that drop instances, merges of
// collectors that themselves hold merges, and events after a merge —
// and compares them with the oracle's, nil and empty slices included.
func TestBuildMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 2000; iter++ {
		n := 1 + rng.Intn(10)
		in := randomInput(rng, n)
		top := newCollectorPair(n)
		subs := make([]collectorPair, 1+rng.Intn(3))
		sizes := make([]int, len(subs))
		for i := range subs {
			sizes[i] = 1 + rng.Intn(n+1)
			subs[i] = newCollectorPair(sizes[i])
		}
		for op := 0; op < 80; op++ {
			switch k := rng.Intn(len(subs)); rng.Intn(10) {
			case 0:
				remap := randomRemap(rng, sizes[k], n)
				top.c.Merge(subs[k].c, remap)
				top.o.Merge(subs[k].o, remap)
			case 1:
				if j := rng.Intn(len(subs)); j != k {
					remap := randomRemap(rng, sizes[j], sizes[k])
					subs[k].c.Merge(subs[j].c, remap)
					subs[k].o.Merge(subs[j].o, remap)
				}
			case 2, 3:
				top.event(rng, n)
			default:
				subs[k].event(rng, sizes[k])
			}
		}
		got := Build(in, top.c)
		want := oracleBuild(in, top.o.pe, top.o.mem, top.o.host)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: spans differ\ngot:  %+v\nwant: %+v", iter, got, want)
		}
	}
}

// TestBuildSerialCollector covers the shape every run produces: one
// engine per collector, each kind's events in time order.
func TestBuildSerialCollector(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		n := 1 + rng.Intn(20)
		in := randomInput(rng, n)
		p := newCollectorPair(n)
		for i := 0; i < n; i++ {
			a, f := in.Arrive[i], in.Finish[i]
			for _, r := range randomRecs(rng, recPE, a, f, 10, true) {
				name := "CB:fc"
				if r.split {
					name = "CB(split):fc"
				}
				p.c.Event("pe", name, i, int(r.layer), int(r.iter), r.start, r.end)
				p.o.Event("pe", name, i, int(r.layer), int(r.iter), r.start, r.end)
			}
			for _, r := range randomRecs(rng, recMem, a, f, 10, true) {
				p.c.Event("mem", "MB:fc", i, 0, 0, r.start, r.end)
				p.o.Event("mem", "MB:fc", i, 0, 0, r.start, r.end)
			}
		}
		if err := CheckOrdered(p.c); err != nil {
			t.Fatal(err)
		}
		if got, want := Build(in, p.c), oracleBuild(in, p.o.pe, p.o.mem, p.o.host); !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: spans differ\ngot:  %+v\nwant: %+v", iter, got, want)
		}
	}
}

// TestBuildNilCollector attributes a run with no collector: every
// finished cycle is queue time.
func TestBuildNilCollector(t *testing.T) {
	in := Input{
		Classes: []string{"c"}, ClassOf: []int{0, 0},
		StreamArrive: []arch.Cycles{0, 5}, Deadlines: []arch.Cycles{10, 10},
		Arrive: []arch.Cycles{0, 5}, Finish: []arch.Cycles{4, 0},
	}
	got := Build(in, nil)
	want := oracleBuild(in, make([][]peIval, 2), make([][]ival, 2), make([][]ival, 2))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if Build(Input{}, nil) != nil {
		t.Error("an empty input must build no spans")
	}
}

// TestMergeKeepsSnapshot checks that a merge reads the sub-collector
// as it stood: events recorded after it are not merged.
func TestMergeKeepsSnapshot(t *testing.T) {
	sub, top := NewCollector(1), NewCollector(2)
	sub.Event("pe", "CB:x", 0, 0, 0, 0, 10)
	top.Merge(sub, []int{1})
	sub.Event("pe", "CB:x", 0, 0, 1, 10, 20)
	if got := Records(top); got != 1 {
		t.Fatalf("merged collector holds %d records, want 1", got)
	}
}
