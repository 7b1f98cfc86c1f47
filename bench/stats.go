package main

import (
	"math"
	"sort"
)

// Summary is one metric over the samples of a run: the median, the first
// and third quartiles, and the samples themselves.
type Summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// summarize computes the median and quartiles of xs.
func summarize(unit string, xs []float64) Summary {
	s := Summary{Unit: unit, N: len(xs), Samples: append([]float64(nil), xs...)}
	if len(xs) == 0 {
		return s
	}
	s.Median = median(xs)
	s.Q1, s.Q3 = quartiles(xs)
	return s
}

// Spread is the interquartile range as a share of the median, the
// run-to-run noise measure the comparison and the acceptance rule use.
func (s Summary) Spread() float64 {
	if s.Q3 == s.Q1 {
		return 0
	}
	if s.Median == 0 {
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func sorted(xs []float64) []float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	return d
}

func median(xs []float64) float64 {
	d := sorted(xs)
	n := len(d)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so spreads printed here match a reader's own computation.
// With fewer than two samples both quartiles are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	d := sorted(xs)
	ld := len(d)
	if ld < 2 {
		return d[0], d[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q(1), q(3)
}
