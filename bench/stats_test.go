package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 9}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{2, 2, 2, 2, 9}, 2},
	} {
		if got := median(tc.xs); !near(got, tc.want) {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// The expected cut points are what Python's statistics.quantiles(xs,
// n=4) prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{5, 1, 9, 2, 7}, 1.5, 5, 8},
	} {
		q1, q2, q3, err := quartiles(tc.xs)
		if err != nil {
			t.Fatalf("quartiles(%v): %v", tc.xs, err)
		}
		if !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample did not refuse")
	}
}

func TestPercentileTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64 // 0 means refusal
	}{
		{200, 95, 190}, // rank 190, 10 beyond
		{199, 95, 0},   // rank 190, 9 beyond
		{220, 95, 209}, // rank 209, 11 beyond
		{20, 50, 10},   // even count: nearest rank, not interpolated
		{21, 50, 11},
		{19, 50, 0}, // 9 beyond
		{1000, 99, 990},
		{999, 99, 0}, // rank 990, 9 beyond
	} {
		got, err := percentile(ramp(tc.n), tc.p)
		switch {
		case tc.want == 0 && err == nil:
			t.Errorf("p%g of %d samples = %g, want a refusal", tc.p, tc.n, got)
		case tc.want != 0 && err != nil:
			t.Errorf("p%g of %d samples refused: %v", tc.p, tc.n, err)
		case tc.want != 0 && got != tc.want:
			t.Errorf("p%g of %d samples = %g, want %g", tc.p, tc.n, got, tc.want)
		}
	}
	for _, p := range []float64{0, 100, -1} {
		if _, err := percentile(ramp(500), p); err == nil {
			t.Errorf("percentile accepted p = %g", p)
		}
	}
}

func TestRelGap(t *testing.T) {
	if got := relGap(2, 2.2); !near(got, 0.1) {
		t.Errorf("relGap(2, 2.2) = %g, want 0.1", got)
	}
	if got := relGap(2, 1.5); !near(got, -0.25) {
		t.Errorf("relGap(2, 1.5) = %g, want -0.25", got)
	}
}
