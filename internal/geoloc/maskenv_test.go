package geoloc

// Env-level equivalence tests for the quantized mask cache: every
// geometry method must produce byte-identical regions with Masks
// enabled and disabled, across random and degenerate caps and rings.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"activegeo/internal/geo"
	"activegeo/internal/grid"
	"activegeo/internal/netsim"
)

// withMasksOff runs fn with the env's mask cache disabled, restoring it
// after. Tests in this package run sequentially, so the toggle is safe.
func withMasksOff(env *Env, fn func()) {
	saved := env.Masks
	env.Masks = nil
	defer func() { env.Masks = saved }()
	fn()
}

func randomPoint(rng *rand.Rand) geo.Point {
	return geo.Point{
		Lat: math.Asin(2*rng.Float64()-1) * 180 / math.Pi,
		Lon: 360*rng.Float64() - 180,
	}
}

// TestEnvMaskEquivalence: Region (for disk and ring constraints) and
// IntersectWithinFor must be byte-identical with and without the mask
// cache, including degenerate radii (≤ 0), rings with no usable inner
// bound, inverted rings, and radii past the antipode.
func TestEnvMaskEquivalence(t *testing.T) {
	env := NewEnv(4)
	if env.Masks == nil {
		t.Fatal("NewEnv did not wire a mask cache")
	}
	rng := rand.New(rand.NewSource(91))
	sameBothWays := func(c Constraint) {
		t.Helper()
		on := env.Region(c)
		var off *grid.Region
		withMasksOff(env, func() { off = env.Region(c) })
		if !on.Equal(off) {
			t.Fatalf("constraint %+v: mask-on %d cells, mask-off %d", c, on.Count(), off.Count())
		}
	}
	for k := 0; k < 25; k++ {
		id := netsim.HostID(fmt.Sprintf("lm-%d", k%7)) // repeats → cache hits
		p := randomPoint(rng)
		radii := []float64{
			rng.Float64() * geo.HalfEquatorKm,
			-10, 0, 1e-9,
			grid.DefaultMaskStepKm,
			math.Pi*geo.EarthRadiusKm + 50,
		}
		for _, radius := range radii {
			sameBothWays(DiskConstraint(id, geo.Cap{Center: p, RadiusKm: radius}))
		}
		rings := []geo.Ring{
			{Center: p, MinKm: rng.Float64() * 3000, MaxKm: rng.Float64() * geo.HalfEquatorKm},
			{Center: p, MinKm: 0, MaxKm: 2500},
			{Center: p, MinKm: 10, MaxKm: 2500},   // shrink stays negative → unbounded inner edge
			{Center: p, MinKm: 6000, MaxKm: 4000}, // inverted
			{Center: p, MinKm: 0, MaxKm: 0},       // empty outer
		}
		for _, ring := range rings {
			sameBothWays(env.RingConstraint(id, ring))
		}
		base := env.Grid.CapRegion(geo.Cap{Center: randomPoint(rng), RadiusKm: 4000 + rng.Float64()*8000})
		maxKm := rng.Float64() * geo.HalfEquatorKm
		a := base.Clone()
		env.IntersectWithinFor(a, id, p, maxKm)
		b := base.Clone()
		withMasksOff(env, func() { env.IntersectWithinFor(b, id, p, maxKm) })
		if !a.Equal(b) {
			t.Fatalf("intersect maxKm=%v: mask-on %d cells, mask-off %d", maxKm, a.Count(), b.Count())
		}
	}
}

// TestInvalidateLandmark: eviction must hit both caches for a warmed
// landmark and report zero for an unknown one.
func TestInvalidateLandmark(t *testing.T) {
	env := NewEnv(5)
	p := geo.Point{Lat: 48.85, Lon: 2.35}
	env.Region(DiskConstraint("warm", geo.Cap{Center: p, RadiusKm: 1000}))
	if f, m := env.InvalidateLandmark("warm"); f != 1 || m != 1 {
		t.Fatalf("InvalidateLandmark(warm) = (%d fields, %d masks), want (1, 1)", f, m)
	}
	if f, m := env.InvalidateLandmark("cold"); f != 0 || m != 0 {
		t.Fatalf("InvalidateLandmark(cold) = (%d, %d), want (0, 0)", f, m)
	}
	// With Masks disabled the call must stay nil-safe.
	withMasksOff(env, func() {
		if f, m := env.InvalidateLandmark("cold"); f != 0 || m != 0 {
			t.Fatalf("mask-off InvalidateLandmark = (%d, %d)", f, m)
		}
	})
}
