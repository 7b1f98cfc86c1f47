package main

import (
	"math"
	"testing"
)

func TestMedianAndQuartiles(t *testing.T) {
	// Expected quartiles are statistics.quantiles(xs, n=4) in Python.
	cases := []struct {
		xs             []float64
		median, q1, q3 float64
	}{
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 8.25},
		{[]float64{1.5, 2.5, 4, 8, 16}, 4, 2, 12},
	}
	for _, c := range cases {
		s := summarize("s", c.xs)
		if s.Median != c.median || s.Q1 != c.q1 || s.Q3 != c.q3 || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = median %v q1 %v q3 %v n %d, want %v %v %v %d",
				c.xs, s.Median, s.Q1, s.Q3, s.N, c.median, c.q1, c.q3, len(c.xs))
		}
	}
}

func TestSpread(t *testing.T) {
	if got := summarize("s", []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}).Spread(); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := summarize("ratio", []float64{0}).Spread(); got != 0 {
		t.Errorf("spread of a constant zero = %v, want 0", got)
	}
	if got := summarize("s", nil); got.N != 0 || got.Spread() != 0 {
		t.Errorf("empty summary = %+v", got)
	}
}
