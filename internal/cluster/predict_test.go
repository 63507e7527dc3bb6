package cluster

import (
	"reflect"
	"testing"

	"aimt/internal/arch"
)

// TestPredictETAStaticFallbacks: PredictETA equals the static ETA
// exactly both when no predictor is attached (the legacy dispatcher —
// this is what keeps the pre-predictive paths bit-identical) and when
// the predictor exists but the chip has no routed history to simulate
// against.
func TestPredictETAStaticFallbacks(t *testing.T) {
	cfg := testConfig(t)
	s := prioStream(t, cfg, 50, 9, 2.0, 2)
	r := Request{Index: 3, Class: s.ClassOf[3], Arrival: s.Arrivals[3], Service: s.EntryService(3)}
	v := &View{chips: 2, classes: len(s.Classes), freeAt: make([]arch.Cycles, 2)}
	v.freeAt[0] = r.Arrival + 500
	if got, want := v.PredictETA(0, r), v.ETA(0, r); got != want {
		t.Errorf("no predictor: PredictETA %d != static ETA %d", got, want)
	}
	v.pred = newPredictor(cfg, s, 2)
	if got, want := v.PredictETA(1, r), v.ETA(1, r); got != want {
		t.Errorf("empty history: PredictETA %d != static ETA %d", got, want)
	}
}

// TestPredictiveDeadlineDiffersFromStatic routes one saturated stream
// twice — the deadline policy on static ETAs versus the predictive
// policy on the forward-simulation predictor — and checks (a) both dispatches are
// valid, (b) the predictor actually changed at least one routing
// decision. The static estimate serially sums isolated service times;
// the simulation sees fetch/compute overlap between co-resident
// requests, so at load the two must disagree somewhere.
func TestPredictiveDeadlineDiffersFromStatic(t *testing.T) {
	cfg := testConfig(t)
	s := prioStream(t, cfg, 200, 9, 3.0, 2)
	static, _, _, err := dispatch(s, Deadline{}, 2, Control{}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pred, _, _, err := dispatch(s, Predictive{}, 2, Control{}, newPredictor(cfg, s, 2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range pred {
		if c < 0 || c >= 2 {
			t.Fatalf("predictive dispatch routed request %d to chip %d", i, c)
		}
	}
	if reflect.DeepEqual(static, pred) {
		t.Error("predictor never changed a routing decision at 3x saturation; the simulation path looks dead")
	}
}

// TestPredictiveDispatchDeterministic: the predictor is a pure
// function of the dispatch state, so two controlled dispatches over
// the same stream agree exactly.
func TestPredictiveDispatchDeterministic(t *testing.T) {
	cfg := testConfig(t)
	s := prioStream(t, cfg, 150, 5, 3.0, 2)
	a, _, _, err := dispatch(s, Predictive{}, 2, Control{}, newPredictor(cfg, s, 2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _, err := dispatch(s, Predictive{}, 2, Control{}, newPredictor(cfg, s, 2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("predictive dispatch is not deterministic")
	}
}

// TestPredictivePolicyServes runs the full Serve path under the
// predictive policy — which must attach the predictor implicitly,
// without any explicit Control setting — and checks every request is
// served and accounted.
func TestPredictivePolicyServes(t *testing.T) {
	cfg := testConfig(t)
	s := prioStream(t, cfg, 120, 7, 2.0, 2)
	res, err := Serve(cfg, s, aimtSpec(), Predictive{}, Options{Chips: 2, CheckInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "predictive" {
		t.Errorf("result policy %q, want predictive", res.Policy)
	}
	served := 0
	for _, cr := range res.ChipResults {
		if cr != nil {
			served += len(cr.NetFinish)
		}
	}
	if served != len(s.Nets) {
		t.Errorf("served %d of %d requests", served, len(s.Nets))
	}
	if res.ShedCount != 0 {
		t.Errorf("predictive routing shed %d requests with admission off", res.ShedCount)
	}
}

// TestPredictiveByName: the predictive policy resolves by name (the
// aimt-serve -route path) without joining the default comparison set.
func TestPredictiveByName(t *testing.T) {
	spec, err := ByName("predictive")
	if err != nil {
		t.Fatal(err)
	}
	if spec.New().Name() != "predictive" {
		t.Errorf("ByName(predictive) built %q", spec.New().Name())
	}
	for _, s := range Policies() {
		if s.Name == "predictive" {
			t.Error("predictive must not be in the default Policies() comparison set")
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName accepted an unknown policy")
	}
}

// TestPredictorWindowSlides: the per-chip history is bounded by the
// window, oldest-out.
func TestPredictorWindowSlides(t *testing.T) {
	cfg := testConfig(t)
	s := prioStream(t, cfg, 20, 3, 1.0, 1)
	p := newPredictor(cfg, s, 1)
	for i := 0; i < 10; i++ {
		p.record(0, i)
	}
	want := []int{2, 3, 4, 5, 6, 7, 8, 9}
	if !reflect.DeepEqual(p.recent[0], want) {
		t.Errorf("window holds %v, want %v", p.recent[0], want)
	}
}
