package trace

import (
	"encoding/json"
	"io"
)

// chromeEvent is one trace_event record: an "X" complete slice or an
// "M" metadata record naming a process or thread.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

var engineTID = map[string]int{"mem": 1, "pe": 2, "host": 3}

// Track is one named timeline in a merged Chrome/Perfetto export: a
// (process, thread) pair plus its occupancy events. Merged exports
// overlay engine occupancy (one process per chip, one thread per
// engine) with request tracks (one thread per tail exemplar).
type Track struct {
	// PID and TID place the track; Perfetto groups threads under
	// their process.
	PID, TID int

	// Process and Thread name the track. The first track of each PID
	// names the process.
	Process, Thread string

	// Events holds the track's intervals.
	Events []Event
}

// EngineTracks splits a recorder's events into one track per engine
// ("mem", "pe", "host", in that order) under the given process.
func (r *Recorder) EngineTracks(pid int, process string) []Track {
	var out []Track
	for _, eng := range []string{"mem", "pe", "host"} {
		var evs []Event
		for _, e := range r.Events {
			if e.Engine == eng {
				evs = append(evs, e)
			}
		}
		if len(evs) == 0 {
			continue
		}
		out = append(out, Track{
			PID: pid, TID: engineTID[eng],
			Process: process, Thread: eng,
			Events: evs,
		})
	}
	return out
}

// WriteChromeTracks emits the tracks as one Chrome trace_event JSON
// array: "M" metadata records naming each process and thread, then
// every event as a "X" complete slice (timestamps are cycles read as
// microseconds). Output is byte-deterministic for a given track list.
func WriteChromeTracks(w io.Writer, tracks []Track) error {
	var evs []chromeEvent
	named := map[int]bool{}
	for _, t := range tracks {
		if t.Process != "" && !named[t.PID] {
			named[t.PID] = true
			evs = append(evs, chromeEvent{
				Name: "process_name", Ph: "M", PID: t.PID,
				Args: map[string]any{"name": t.Process},
			})
		}
		if t.Thread != "" {
			evs = append(evs, chromeEvent{
				Name: "thread_name", Ph: "M", PID: t.PID, TID: t.TID,
				Args: map[string]any{"name": t.Thread},
			})
		}
	}
	for _, t := range tracks {
		for _, e := range t.Events {
			evs = append(evs, chromeEvent{
				Name: e.Name,
				Cat:  e.Engine,
				Ph:   "X",
				TS:   int64(e.Start),
				Dur:  int64(e.End - e.Start),
				PID:  t.PID,
				TID:  t.TID,
				Args: map[string]any{"net": e.Net, "layer": e.Layer, "iter": e.Iter},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(evs)
}
