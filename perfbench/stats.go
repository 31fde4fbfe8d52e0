package main

import (
	"math"
	"sort"

	"activegeo/internal/mathx"
)

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile of tailLadder with at
// least minBeyond of n samples beyond it, and false when n is too small
// for any of them.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		// The tolerance absorbs float error in 100-p (99.9 is inexact).
		if float64(n)*(100-p)/100 >= minBeyond-1e-6 {
			return p, true
		}
	}
	return 0, false
}

// dist summarizes a sample of timings.
type dist struct {
	N     int
	P50   float64
	Tail  float64 // value at TailP; equals P50 when TailP is 0
	TailP float64 // percentile of Tail; 0 when n is too small for one
	Max   float64
}

func summarize(xs []float64) dist {
	d := dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d.P50 = mathx.Quantile(s, 0.5)
	d.Tail = d.P50
	if p, ok := tailPercentile(len(s)); ok {
		d.TailP = p
		d.Tail = mathx.Quantile(s, p/100)
	}
	d.Max = s[len(s)-1]
	return d
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return mathx.Quantile(xs, 0.5)
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
