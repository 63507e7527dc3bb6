package cluster

import (
	"fmt"

	"aimt/internal/arch"
	"aimt/internal/rtrace"
	"aimt/internal/serve"
	"aimt/internal/sim"
	"aimt/internal/trace"
)

// TraceRun is the outcome of TraceRequests: the cluster result (spans
// included), the bounded span store backing the attribution report,
// and the merged Perfetto track set — per-chip engine occupancy
// overlaid with one track per tail exemplar.
type TraceRun struct {
	Stream *serve.Stream
	Result *Result
	Store  *rtrace.Store
	Tracks []trace.Track
}

// TraceRequests runs one fixed-seed serving stream across a cluster
// with both request tracing and engine tracing on, and assembles the
// merged track set. load is the per-chip offered load (>1 means
// overload); the routing policy is least-work. The run is
// deterministic for fixed inputs, so goldens can pin the merged
// export byte-exactly.
func TraceRequests(cfg arch.Config, classes []serve.Class, spec serve.SchedulerSpec, requests, chips int, load float64, seed int64) (*TraceRun, error) {
	if chips <= 0 {
		chips = 1
	}
	if load <= 0 {
		load = 1
	}
	gaps, err := serve.LoadGaps(cfg, classes, serve.StreamOptions{Seed: seed}, chips, []float64{load})
	if err != nil {
		return nil, err
	}
	s, err := serve.NewStream(cfg, classes, serve.StreamOptions{Requests: requests, MeanGap: gaps[0], Seed: seed})
	if err != nil {
		return nil, err
	}

	pol, err := ByName("least-work")
	if err != nil {
		return nil, err
	}
	st := rtrace.NewStore(rtrace.Options{SampleEvery: 1, WorstN: 4})
	recs := make([]*trace.Recorder, chips)
	res, err := Serve(cfg, s, spec, pol.New(), Options{
		Chips: chips,
		Trace: st,
		EngineTrace: func(c int) sim.Tracer {
			recs[c] = &trace.Recorder{}
			return recs[c]
		},
	})
	if err != nil {
		return nil, err
	}

	var tracks []trace.Track
	for c := 0; c < chips; c++ {
		if recs[c] == nil {
			continue
		}
		tracks = append(tracks, recs[c].EngineTracks(c+1, fmt.Sprintf("chip %d", c))...)
	}
	tracks = append(tracks, rtrace.Tracks(chips+1, st.Exemplars())...)
	return &TraceRun{Stream: s, Result: res, Store: st, Tracks: tracks}, nil
}
