package grid

// Tests for the word-wise region reductions: the per-band popcount area
// sum and the keep-mask distance pruning, each checked against its
// retained bit-by-bit reference implementation.

import (
	"math"
	"math/rand"
	"testing"

	"activegeo/internal/geo"
)

// randomRegion builds a region from a few random caps minus a random
// cap, so it has ragged boundaries, multiple bands, and holes.
func randomRegion(g *Grid, rng *rand.Rand) *Region {
	r := g.NewRegion()
	for k := 0; k < 1+rng.Intn(3); k++ {
		r.AddCap(randomCap(rng))
	}
	hole := g.NewRegion()
	hole.AddCap(randomCap(rng))
	r.SubtractWith(hole)
	return r
}

// TestAreaKm2MatchesReference: the word-wise per-band sum must agree
// with the sequential per-cell sum. The two accumulate in different
// orders (n equal terms multiplied vs added one by one), so agreement is
// up to relative rounding, not bit-exact.
func TestAreaKm2MatchesReference(t *testing.T) {
	g := New(2.5)
	rng := rand.New(rand.NewSource(31))
	for k := 0; k < 100; k++ {
		r := randomRegion(g, rng)
		got, want := r.AreaKm2(), r.AreaKm2Reference()
		if want == 0 {
			if got != 0 {
				t.Fatalf("empty region: got area %v, want 0", got)
			}
			continue
		}
		if rel := math.Abs(got-want) / want; rel > 1e-12 {
			t.Fatalf("region %d cells: AreaKm2 %v vs reference %v (rel %.3g)", r.Count(), got, want, rel)
		}
	}
	empty := g.NewRegion()
	if a := empty.AreaKm2(); a != 0 {
		t.Fatalf("empty region area = %v, want 0", a)
	}
	full := g.FullRegion()
	sphere := 4 * math.Pi * geo.EarthRadiusKm * geo.EarthRadiusKm
	if rel := math.Abs(full.AreaKm2()-sphere) / sphere; rel > 1e-9 {
		t.Fatalf("full region area %v, want sphere %v", full.AreaKm2(), sphere)
	}
}

// TestIntersectWithinKmMatchesReference: the keep-mask path applies the
// identical float64 predicate per set bit, so the resulting bitsets must
// be byte-identical to the reference, not merely equivalent.
func TestIntersectWithinKmMatchesReference(t *testing.T) {
	g := New(2.5)
	rng := rand.New(rand.NewSource(32))
	for k := 0; k < 100; k++ {
		r := randomRegion(g, rng)
		dist := g.DistancesFrom(randomCap(rng).Center)
		maxKm := rng.Float64() * geo.HalfEquatorKm
		a, b := r.Clone(), r.Clone()
		a.IntersectWithinKm(dist, maxKm)
		b.IntersectWithinKmReference(dist, maxKm)
		for w := range a.bits {
			if a.bits[w] != b.bits[w] {
				t.Fatalf("maxKm %.1f: word %d differs: %x vs %x", maxKm, w, a.bits[w], b.bits[w])
			}
		}
	}
}

// TestIntersectRingKmMatchesFill: intersecting a region with a ring in
// place must give the same bits as intersecting it with the ring's
// filled region, for finite, −Inf, inverted and degenerate bounds.
func TestIntersectRingKmMatchesFill(t *testing.T) {
	g := New(2.5)
	rng := rand.New(rand.NewSource(33))
	for k := 0; k < 60; k++ {
		r := randomRegion(g, rng)
		lm := randomCap(rng).Center
		dist := g.DistancesFrom(lm)
		cm := newCapMasks(g, dist, DefaultMaskStepKm, nil)
		bounds := [][2]float64{
			{math.Inf(-1), rng.Float64() * geo.HalfEquatorKm},
			{rng.Float64() * 3000, rng.Float64() * geo.HalfEquatorKm},
			{5000, 4000},
			{0, 0},
			{math.Inf(-1), -1},
		}
		for _, mm := range bounds {
			got := r.Clone()
			got.IntersectRingKm(dist, mm[0], mm[1])
			ring := g.NewRegion()
			cm.FillRingKm(ring, mm[0], mm[1])
			want := r.Clone()
			want.IntersectWith(ring)
			if !got.Equal(want) {
				t.Fatalf("ring (%v, %v]: in-place %d cells, filled %d", mm[0], mm[1], got.Count(), want.Count())
			}
		}
	}
}

// TestCopyFromAndClear: CopyFrom reproduces the source's bits into a
// region that held other cells, and Clear empties it.
func TestCopyFromAndClear(t *testing.T) {
	g := New(2.5)
	rng := rand.New(rand.NewSource(34))
	src, dst := randomRegion(g, rng), g.FullRegion()
	dst.CopyFrom(src)
	if !dst.Equal(src) {
		t.Fatalf("CopyFrom: %d cells, want %d", dst.Count(), src.Count())
	}
	dst.Clear()
	if !dst.Empty() {
		t.Fatalf("Clear left %d cells", dst.Count())
	}
}

// TestCountInRange checks the word-masked popcount against a brute
// count, including unaligned and cross-word ranges.
func TestCountInRange(t *testing.T) {
	g := New(3)
	rng := rand.New(rand.NewSource(33))
	r := randomRegion(g, rng)
	for k := 0; k < 200; k++ {
		lo := rng.Intn(g.total+10) - 5
		hi := lo + rng.Intn(200)
		want := 0
		for i := lo; i < hi; i++ {
			if i >= 0 && i < g.total && r.Contains(i) {
				want++
			}
		}
		if got := r.countInRange(lo, hi); got != want {
			t.Fatalf("countInRange(%d,%d) = %d, want %d", lo, hi, got, want)
		}
	}
}

// TestFilterMatchesReference: the word-wise keep-mask Filter applies
// the identical predicate to the identical cells, so the resulting
// bitsets must be byte-identical to the bit-by-bit reference — for
// ragged geometric predicates and for keep-all/drop-all extremes.
func TestFilterMatchesReference(t *testing.T) {
	g := New(2.5)
	rng := rand.New(rand.NewSource(34))
	preds := []func(p geo.Point) bool{
		func(p geo.Point) bool { return p.Lat <= 85 && p.Lat >= -60 },
		func(p geo.Point) bool { return p.Lon > 10 || p.Lat < -20 },
		func(p geo.Point) bool { return math.Mod(math.Abs(p.Lat)+math.Abs(p.Lon), 7) < 3.5 },
		func(p geo.Point) bool { return true },
		func(p geo.Point) bool { return false },
	}
	for k := 0; k < 50; k++ {
		r := randomRegion(g, rng)
		keep := preds[k%len(preds)]
		a, b := r.Clone(), r.Clone()
		a.Filter(keep)
		b.FilterReference(keep)
		if !a.Equal(b) {
			t.Fatalf("trial %d: Filter differs from reference (%d vs %d cells)", k, a.Count(), b.Count())
		}
	}
}

// TestCoverageArgmaxCounts builds regions with known per-cell counts —
// cell i of region k present for k < mult[i] — so the maximum and its
// cells are known without a counter, including counts that cross
// bit-plane boundaries and the empty cases.
func TestCoverageArgmaxCounts(t *testing.T) {
	g := New(10)
	for _, c := range []struct {
		regions int
		mult    map[int]int // cell → number of regions containing it
		want    int
	}{
		{0, nil, 0},
		{3, nil, 0},
		{1, map[int]int{5: 1, 64: 1}, 1},
		{4, map[int]int{0: 3, 63: 4, 64: 4, 200: 2}, 4},
		{255, map[int]int{1: 255, 70: 254, 130: 128}, 255},
		{256, map[int]int{1: 255, 70: 256, 130: 128, g.NumCells() - 1: 256}, 256},
		{300, map[int]int{9: 127, 10: 128, 11: 129}, 129},
	} {
		regions := make([]*Region, c.regions)
		for k := range regions {
			regions[k] = g.NewRegion()
			for cell, m := range c.mult {
				if k < m {
					regions[k].Add(cell)
				}
			}
		}
		got, n := g.CoverageArgmax(regions)
		want := g.NewRegion()
		for cell, m := range c.mult {
			if m == c.want {
				want.Add(cell)
			}
		}
		if n != c.want || !got.Equal(want) {
			t.Errorf("%d regions %v: got count %d over %v, want %d over %v", c.regions, c.mult, n, got, c.want, want)
		}
	}
	full, n := g.CoverageArgmax([]*Region{g.FullRegion(), g.FullRegion()})
	if n != 2 || full.Count() != g.NumCells() {
		t.Errorf("two full regions: count %d over %d cells, want 2 over %d", n, full.Count(), g.NumCells())
	}
}
