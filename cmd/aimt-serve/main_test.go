package main

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// defaults mirrors the flag defaults main registers.
func defaults() options {
	return options{requests: 50, process: "poisson", seed: 7, chips: 1, decode: -1, rtrace: -1}
}

// TestValidateRejects covers the up-front flag checks: each bad
// combination fails before any simulation work, naming the flag.
func TestValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*options)
		want string
	}{
		{"NaN load", func(o *options) { o.loads = "NaN" }, "-loads"},
		{"Inf load", func(o *options) { o.loads = "Inf" }, "-loads"},
		{"zero load", func(o *options) { o.loads = "0" }, "-loads"},
		{"negative load", func(o *options) { o.loads = "-0.5" }, "-loads"},
		{"unknown route", func(o *options) { o.route = "least-work,bogus" }, "-route"},
		{"unknown sched", func(o *options) { o.scheds = "FIFO,bogus" }, "-sched"},
		{"decode without transformer", func(o *options) { o.decode = 4 }, "-decode requires -transformer"},
		{"hold without admin", func(o *options) { o.hold = time.Second }, "-hold requires -admin"},
	} {
		o := defaults()
		tc.set(&o)
		if _, err := validate(o); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: validate = %v, want an error mentioning %q", tc.name, err, tc.want)
		}
		if err := run(o); err == nil {
			t.Errorf("%s: run accepted what validate rejects", tc.name)
		}
	}
}

// TestSchedulerSelection: -sched resolves through the scheduler table
// in table order without duplicates, the empty default is the standard
// set, and cluster mode runs AI-MT per chip unless told otherwise
// (AI-MT+Prio with -priorities, else the first -sched selection).
func TestSchedulerSelection(t *testing.T) {
	for _, tc := range []struct {
		scheds string
		prios  bool
		want   []string
		chip   string
	}{
		{"", false, []string{"FIFO", "PREMA", "AI-MT", "EDF"}, "AI-MT"},
		{"", true, []string{"FIFO", "PREMA", "AI-MT", "EDF"}, "AI-MT+Prio"},
		{"lookahead", false, []string{"Lookahead"}, "Lookahead"},
		{"lookahead,EDF,fifo,FIFO", true, []string{"FIFO", "EDF", "Lookahead"}, "FIFO"},
		{"aimt-pf, ai-mt+prio", false, []string{"AI-MT(PF)", "AI-MT+Prio"}, "AI-MT(PF)"},
	} {
		o := defaults()
		o.scheds, o.prios, o.chips = tc.scheds, tc.prios, 2
		sel, err := validate(o)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, s := range sel.schedulers {
			got = append(got, s.Name)
		}
		chip, err := clusterScheduler(o, sel.schedulers)
		if err != nil || !reflect.DeepEqual(got, tc.want) || chip.Name != tc.chip {
			t.Errorf("-sched %q -priorities=%v: %v, cluster %q (%v); want %v, cluster %q",
				tc.scheds, tc.prios, got, chip.Name, err, tc.want, tc.chip)
		}
	}
}
