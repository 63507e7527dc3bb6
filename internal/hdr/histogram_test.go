package hdr

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"aimt/internal/arch"
)

// percentile is an exact nearest-rank reference estimator over a
// sorted copy of vals.
func percentile(vals []arch.Cycles, p float64) arch.Cycles {
	if len(vals) == 0 || math.IsNaN(p) {
		return 0
	}
	sorted := append([]arch.Cycles(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

func TestHistogramExactBelow64(t *testing.T) {
	var h Histogram
	var vals []arch.Cycles
	for v := arch.Cycles(0); v < 64; v++ {
		h.Record(v)
		vals = append(vals, v)
	}
	if h.Count() != 64 {
		t.Fatalf("count = %d, want 64", h.Count())
	}
	// Every value below histSub occupies its own bucket, so quantiles
	// are exact: nearest-rank of p over 0..63.
	for _, p := range []float64{1, 25, 50, 75, 100} {
		want := percentile(vals, p)
		if got := h.Quantile(p); got != want {
			t.Errorf("Quantile(%v) = %d, want exact %d", p, got, want)
		}
	}
}

// TestHistogramQuantileError checks the advertised relative error bound
// of 1/64 against exact nearest-rank percentiles over random values.
func TestHistogramQuantileError(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var h Histogram
	var vals []arch.Cycles
	for i := 0; i < 20000; i++ {
		v := arch.Cycles(r.Int63n(1 << uint(4+r.Intn(40))))
		vals = append(vals, v)
		h.Record(v)
	}
	for _, p := range []float64{0, 10, 50, 90, 95, 99, 99.9, 100} {
		exact := percentile(vals, p)
		got := h.Quantile(p)
		if exact == 0 {
			if got != 0 {
				t.Errorf("p%v: got %d, want 0", p, got)
			}
			continue
		}
		relErr := math.Abs(float64(got)-float64(exact)) / float64(exact)
		if relErr > 1.0/64+1e-9 {
			t.Errorf("p%v: got %d, exact %d, relative error %.4f > 1/64", p, got, exact, relErr)
		}
	}
	if h.Max() != percentile(vals, 100) || h.Min() != percentile(vals, 0) {
		t.Errorf("extremes drifted: [%d,%d] vs exact [%d,%d]",
			h.Min(), h.Max(), percentile(vals, 0), percentile(vals, 100))
	}
}

func TestHistogramBucketRoundTrip(t *testing.T) {
	// Every bucket's upper bound must map back to the same bucket, and
	// indices must be monotone in the value.
	last := -1
	for _, v := range []arch.Cycles{0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, 1<<40 + 12345} {
		idx := histIndex(v)
		if idx < last {
			t.Errorf("histIndex(%d) = %d is below an earlier smaller value's bucket", v, idx)
		}
		last = idx
		if u := histUpper(idx); histIndex(u) != idx || u < v {
			t.Errorf("histUpper(%d) = %d does not bound bucket of %d", idx, u, v)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, all Histogram
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		v := arch.Cycles(r.Int63n(1 << 30))
		all.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a.Count() != all.Count() || a.Max() != all.Max() || a.Min() != all.Min() || a.Mean() != all.Mean() {
		t.Fatalf("merge disagrees with direct recording: count %d/%d max %d/%d",
			a.Count(), all.Count(), a.Max(), all.Max())
	}
	for _, p := range []float64{50, 99} {
		if a.Quantile(p) != all.Quantile(p) {
			t.Errorf("p%v: merged %d != direct %d", p, a.Quantile(p), all.Quantile(p))
		}
	}
}

// TestHistogramZeroValue pins the zero-value behaviour: an empty
// histogram yields zeros everywhere and negative records clamp.
func TestHistogramZeroValue(t *testing.T) {
	var h Histogram
	if h.Quantile(50) != 0 || h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 || h.Sum() != 0 {
		t.Error("empty Histogram is not all-zero")
	}
	if h.Quantile(math.NaN()) != 0 {
		t.Error("Histogram.Quantile(NaN) != 0")
	}
	h.Record(-5) // clamps, must not panic
	if h.Quantile(50) != 0 {
		t.Errorf("negative record did not clamp to 0")
	}
}

// TestHistogramSum pins the Sum accessor the exposition layers use
// for Prometheus summary _sum/_count pairs.
func TestHistogramSum(t *testing.T) {
	var h Histogram
	for _, v := range []arch.Cycles{3, 9, 27} {
		h.Record(v)
	}
	if h.Sum() != 39 {
		t.Errorf("Sum = %v, want 39", h.Sum())
	}
	if h.Mean() != 13 {
		t.Errorf("Mean = %v, want 13", h.Mean())
	}
}

// TestHistogramMatchesSortedPercentileSmall cross-checks the histogram
// against the exact estimator on a small latency set, the way serving
// reports replace collect-all-latencies.
func TestHistogramMatchesSortedPercentileSmall(t *testing.T) {
	vals := []arch.Cycles{3, 9, 27, 81, 243, 729}
	var h Histogram
	for _, v := range vals {
		h.Record(v)
	}
	for _, p := range []float64{0, 50, 100} {
		exact := percentile(vals, p)
		got := h.Quantile(p)
		if relErr := math.Abs(float64(got)-float64(exact)) / float64(exact); relErr > 1.0/64 {
			t.Errorf("p%v: %d vs exact %d", p, got, exact)
		}
	}
}
