package stats

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := Median(c.in); !near(got, c.want) {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) is not NaN")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.in)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, q2, q3 := Quartiles([]float64{7}); q1 != 7 || q2 != 7 || q3 != 7 {
		t.Errorf("Quartiles of one value = %v %v %v", q1, q2, q3)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	cases := map[float64]float64{0: 1, 50: 6, 95: 10.5, 100: 11}
	for p, want := range cases {
		if got := Percentile(xs, p); !near(got, want) {
			t.Errorf("Percentile(p%v) = %v, want %v", p, got, want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10, 0, false},
		{19, 0, false},
		{20, 50, true},
		{40, 75, true},
		{100, 90, true},
		{200, 95, true},
		{210, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		p, ok := TailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("TailPercentile(%d) = %v %v, want %v %v", c.n, p, ok, c.want, c.ok)
		}
	}
}
