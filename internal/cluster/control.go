package cluster

import (
	"fmt"

	"aimt/internal/arch"
	"aimt/internal/obs"
	"aimt/internal/serve"
)

// Control configures the cluster's overload control plane: SLO-aware
// admission control and elastic autoscaling, both acting at dispatch
// time with exactly the information a production front door has —
// arrivals, class service estimates and its own routing decisions.
// The zero value disables everything, and dispatch routes exactly as
// the uncontrolled cluster does.
type Control struct {
	// Admission enables SLO-aware shedding: a request of the lowest
	// priority band whose best predicted completion (per-chip
	// outstanding-work estimate drained, then served) exceeds its
	// deadline is dropped at the front door instead of routed. Higher
	// bands are never shed — overload degrades the cheap traffic
	// first, predictably.
	Admission bool

	// Autoscale enables elastic sizing of the active chip set: the
	// dispatcher starts at MinChips and grows toward Options.Chips
	// when the mean backlog depth per active chip stays above
	// scaleUpDepth for scalePatience consecutive arrivals, shrinking
	// symmetrically below scaleDownDepth. Hysteresis comes from the
	// gap between the two thresholds plus the patience run length.
	Autoscale bool

	// MinChips is the autoscaler's floor; <= 0 means 1. It is clamped
	// to Options.Chips, so MinChips == Chips pins the active set (the
	// autoscaler becomes a recorded no-op).
	MinChips int
}

// The autoscaler's thresholds. Depths are backlog in units of mean
// request service per active chip; scalePatience is how many
// consecutive arrivals must cross a threshold before the active set
// changes.
const (
	scaleUpDepth   = 3.0
	scaleDownDepth = 0.5
	scalePatience  = 8
)

// ctlStats carries the dispatch-time control-plane outcome into the
// cluster result.
type ctlStats struct {
	shedCount  int
	scaleUps   int
	scaleDowns int
	active     int // active chip count at end of dispatch
}

// note records one control-plane decision in the ledger (nil ledger is
// a no-op). The dispatcher has no SRAM or AVL_CB context, so those
// fields stay zero; Cycle is the arrival the decision fired at.
func ctlNote(led *obs.Ledger, cycle arch.Cycles, kind string, net int, detail arch.Cycles) {
	if led == nil {
		return
	}
	led.Record(obs.Decision{
		Cycle:  cycle,
		Kind:   kind,
		Net:    net,
		Layer:  -1,
		Iter:   -1,
		Stall:  obs.StallNone,
		Detail: detail,
	})
}

// dispatch is the cluster's one dispatch loop: per arrival it first
// lets the autoscaler adjust the active chip set, then applies
// admission control, then routes via the policy within the active set.
// pred, when non-nil, forward-simulates the ETAs the policy and the
// admission check read. It returns the assignment (-1 for shed
// requests), the shed mask, and the control-plane stats. The shed mask
// is nil unless admission, autoscaling or prediction is on. When etas
// is non-nil (and stream-length) each entry's dispatcher completion
// estimate at routing time is recorded for the request tracer.
func dispatch(s *serve.Stream, pol Policy, chips int, ctl Control, pred *predictor, led *obs.Ledger, etas []arch.Cycles) ([]int, []bool, ctlStats, error) {
	if chips <= 0 {
		return nil, nil, ctlStats{}, fmt.Errorf("cluster: chips must be positive, got %d", chips)
	}
	minChips := ctl.MinChips
	if minChips <= 0 {
		minChips = 1
	}
	if minChips > chips {
		minChips = chips
	}
	active := chips
	if ctl.Autoscale {
		active = minChips
	}

	// The lowest priority band is the only sheddable one. With uniform
	// priorities (including the all-zero default) every class is in the
	// lowest band, so admission may shed any class — priorities are what
	// make degradation selective.
	minPrio := 0
	if len(s.ClassPriority) > 0 {
		minPrio = s.ClassPriority[0]
		for _, p := range s.ClassPriority[1:] {
			if p < minPrio {
				minPrio = p
			}
		}
	}

	v := &View{
		chips:   active,
		classes: len(s.Classes),
		freeAt:  make([]arch.Cycles, chips),
		pred:    pred,
	}
	assign := make([]int, len(s.Nets))
	var shed []bool
	if ctl.Admission || ctl.Autoscale || pred != nil {
		shed = make([]bool, len(s.Nets))
	}
	var st ctlStats
	var upRun, downRun int
	for i := range s.Nets {
		r := Request{
			Index:    i,
			Class:    s.ClassOf[i],
			Arrival:  s.Arrivals[i],
			Deadline: s.Deadlines[i],
			Service:  s.EntryService(i),
		}
		if r.Class < len(s.ClassPriority) {
			r.Priority = s.ClassPriority[r.Class]
		}

		// Control decisions fire at request granularity: a decode phase
		// follows its request head — shed with it, or routed to the same
		// chip (its KV cache lives there) while still advancing that
		// chip's backlog — and never triggers autoscaling or admission
		// on its own.
		if s.ChainAfter != nil && s.ChainAfter[i] >= 0 {
			p := s.ChainAfter[i]
			if shed != nil && shed[p] {
				assign[i] = -1
				shed[i] = true
				st.shedCount++
				continue
			}
			c := assign[p]
			assign[i] = c
			if etas != nil {
				etas[i] = v.ETA(c, r)
			}
			v.route(c, r)
			continue
		}

		if ctl.Autoscale && s.MeanService > 0 {
			var backlog arch.Cycles
			for c := 0; c < active; c++ {
				backlog += v.Backlog(c, r.Arrival)
			}
			depth := float64(backlog) / (float64(active) * s.MeanService)
			switch {
			case depth > scaleUpDepth:
				upRun++
				downRun = 0
			case depth < scaleDownDepth:
				downRun++
				upRun = 0
			default:
				upRun, downRun = 0, 0
			}
			if upRun >= scalePatience && active < chips {
				active++
				upRun, downRun = 0, 0
				st.scaleUps++
				ctlNote(led, r.Arrival, obs.KindScaleUp, -1, arch.Cycles(active))
			} else if downRun >= scalePatience && active > minChips {
				active--
				upRun, downRun = 0, 0
				st.scaleDowns++
				ctlNote(led, r.Arrival, obs.KindScaleDown, -1, arch.Cycles(active))
			}
			v.chips = active
		}

		if ctl.Admission && r.Priority == minPrio {
			// The admission check reads the PredictETA seam: static
			// arithmetic normally, the forward-simulated completion
			// when the predictor is on — shedding decisions then see
			// the multi-tenant overlap the serial sum cannot.
			best := v.PredictETA(0, r)
			for c := 1; c < active; c++ {
				if eta := v.PredictETA(c, r); eta < best {
					best = eta
				}
			}
			if best > r.Deadline {
				assign[i] = -1
				shed[i] = true
				st.shedCount++
				if etas != nil {
					etas[i] = best // the prediction that broke the deadline
				}
				ctlNote(led, r.Arrival, obs.KindShed, i, best-r.Deadline)
				continue
			}
		}

		c := pol.Pick(v, r)
		if c < 0 || c >= active {
			return nil, nil, ctlStats{}, fmt.Errorf("cluster: policy %s routed request %d to chip %d, want [0,%d)", pol.Name(), i, c, active)
		}
		assign[i] = c
		if etas != nil {
			etas[i] = v.ETA(c, r)
		}
		v.route(c, r)
	}
	st.active = active
	return assign, shed, st, nil
}
