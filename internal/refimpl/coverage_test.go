package refimpl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"activegeo/internal/geo"
	"activegeo/internal/grid"
)

func randomCap(rng *rand.Rand, maxKm float64) geo.Cap {
	return geo.Cap{
		Center: geo.Point{
			Lat: math.Asin(2*rng.Float64()-1) * 180 / math.Pi,
			Lon: 360*rng.Float64() - 180,
		},
		RadiusKm: rng.Float64() * maxKm,
	}
}

func capRegions(g *grid.Grid, rng *rand.Rand, n int, maxKm float64) []*grid.Region {
	out := make([]*grid.Region, n)
	for i := range out {
		out[i] = g.CapRegion(randomCap(rng, maxKm))
	}
	return out
}

func requireSameArgmax(t *testing.T, g *grid.Grid, label string, regions []*grid.Region) {
	t.Helper()
	want, wantN := CoverageArgmax(g, regions)
	got, gotN := g.CoverageArgmax(regions)
	if gotN != wantN || !got.Equal(want) {
		t.Fatalf("%s (%d regions): kernel count %d over %d cells, per-cell oracle %d over %d cells",
			label, len(regions), gotN, got.Count(), wantN, want.Count())
	}
}

// TestCoverageArgmaxMatchesOracle checks the bit-sliced kernel against
// the per-cell counter: region counts on either side of the bit-plane
// boundaries, identical, disjoint and full-globe regions, and random cap
// sets of every size up to 300.
func TestCoverageArgmaxMatchesOracle(t *testing.T) {
	g := grid.New(2.5)
	rng := rand.New(rand.NewSource(17))

	for _, n := range []int{0, 1, 2, 3, 4, 7, 8, 255, 256, 511} {
		requireSameArgmax(t, g, fmt.Sprintf("random caps n=%d", n), capRegions(g, rng, n, 8000))
	}

	same := g.CapRegion(geo.Cap{Center: geo.Point{Lat: 48, Lon: 2}, RadiusKm: 1500})
	for _, n := range []int{1, 255, 256, 511} {
		regions := make([]*grid.Region, n)
		for i := range regions {
			regions[i] = same
		}
		requireSameArgmax(t, g, fmt.Sprintf("identical n=%d", n), regions)
	}

	// Disjoint: one region per grid cell band, so every count is 0 or 1.
	var disjoint []*grid.Region
	for i := 0; i < g.NumCells(); i += g.NumCells() / 300 {
		r := g.NewRegion()
		r.Add(i)
		disjoint = append(disjoint, r)
	}
	requireSameArgmax(t, g, "disjoint cells", disjoint)
	requireSameArgmax(t, g, "disjoint caps", []*grid.Region{
		g.CapRegion(geo.Cap{Center: geo.Point{Lat: 50, Lon: 10}, RadiusKm: 800}),
		g.CapRegion(geo.Cap{Center: geo.Point{Lat: -30, Lon: 140}, RadiusKm: 800}),
		g.CapRegion(geo.Cap{Center: geo.Point{Lat: 0, Lon: -60}, RadiusKm: 800}),
	})

	full := g.CapRegion(geo.Cap{Center: geo.Point{Lat: 10, Lon: 20}, RadiusKm: geo.HalfEquatorKm})
	if full.Count() != g.NumCells() {
		t.Fatalf("full-globe cap covers %d of %d cells", full.Count(), g.NumCells())
	}
	for _, n := range []int{1, 255, 256, 511} {
		regions := capRegions(g, rng, n, 6000)
		for i := 0; i < n; i += 2 {
			regions[i] = full
		}
		requireSameArgmax(t, g, fmt.Sprintf("full-globe mix n=%d", n), regions)
	}
	requireSameArgmax(t, g, "empty regions", []*grid.Region{g.NewRegion(), g.NewRegion()})

	for trial := 0; trial < 300; trial++ {
		regions := capRegions(g, rng, 1+rng.Intn(300), geo.HalfEquatorKm*rng.Float64())
		requireSameArgmax(t, g, fmt.Sprintf("trial %d", trial), regions)
	}
}

// BenchmarkCoverageArgmax times the kernel against the per-cell oracle
// on 60 continental caps, a CBG++ bestline set's shape, at the quick
// lab's 1.5° resolution.
func BenchmarkCoverageArgmax(b *testing.B) {
	g := grid.New(1.5)
	regions := capRegions(g, rand.New(rand.NewSource(3)), 60, 4000)
	for _, c := range []struct {
		name string
		fn   func(*grid.Grid, []*grid.Region) (*grid.Region, int)
	}{
		{"kernel", (*grid.Grid).CoverageArgmax},
		{"reference", CoverageArgmax},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.fn(g, regions)
			}
		})
	}
}
