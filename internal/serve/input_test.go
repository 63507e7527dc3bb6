package serve

import (
	"math"
	"testing"
)

// TestLoadGapsRejectsNonFinite: NaN, ±Inf and non-positive offered
// loads are rejected at the library boundary instead of becoming a
// one-cycle gap. (The goldens pin the accepted arithmetic.)
func TestLoadGapsRejectsNonFinite(t *testing.T) {
	cfg := testConfig(t)
	for _, load := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -0.5} {
		if _, err := LoadGaps(cfg, DefaultClasses(), StreamOptions{}, 1, []float64{0.5, load}); err == nil {
			t.Errorf("LoadGaps accepted load %v", load)
		}
	}
}

// TestNewStreamRejectsNonFiniteClassFields: a NaN or infinite weight,
// slack or token slack is an error; zero still means the default.
func TestNewStreamRejectsNonFiniteClassFields(t *testing.T) {
	cfg := testConfig(t)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0} {
		for _, set := range []func(*Class){
			func(c *Class) { c.Weight = v },
			func(c *Class) { c.Slack = v },
			func(c *Class) { c.TokenSlack = v },
		} {
			classes := TransformerClasses()
			set(&classes[0])
			if _, err := NewStream(cfg, classes, StreamOptions{Requests: 4}); (err == nil) != (v == 0) {
				t.Errorf("class field %v: err = %v", v, err)
			}
		}
	}
}
