package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("min/max = %v/%v", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty min/max")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {-5, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
	// Interpolation between ranks.
	if got := Percentile([]float64{0, 10}, 30); math.Abs(got-3) > 1e-9 {
		t.Fatalf("interpolated percentile = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("input mutated")
	}
}

func TestBoundsProperties(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			// Skip magnitudes whose sums overflow float64: Mean is
			// not defined to be overflow-safe.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e300 {
				return true
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-9 && m <= Max(xs)+1e-9 &&
			Percentile(xs, 50) >= Min(xs)-1e-9 && Percentile(xs, 50) <= Max(xs)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Min returns the minimum, or +Inf for an empty slice: Max's mirror,
// the lower bound TestBoundsProperties checks Mean and Percentile against.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}
