package main

import (
	"math"
	"testing"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{2000, 99.5, true},
		{10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && float64(c.n)*(100-got)/100 < minBeyond-1e-6 {
			t.Errorf("n=%d: p%v leaves fewer than %d samples beyond it", c.n, got, minBeyond)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted
	}
	d := summarize(xs)
	if d.N != 100 || d.TailP != 90 || d.Max != 100 {
		t.Fatalf("summarize = %+v", d)
	}
	if math.Abs(d.P50-50.5) > 1e-9 || math.Abs(d.Tail-90.1) > 1e-9 {
		t.Fatalf("p50 %v, p90 %v; want 50.5, 90.1", d.P50, d.Tail)
	}
	if small := summarize([]float64{3, 1, 2}); small.TailP != 0 || small.Tail != small.P50 {
		t.Fatalf("three samples support no tail, got %+v", small)
	}
}
