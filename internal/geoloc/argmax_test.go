package geoloc_test

// Equivalence tests for strict-first multilateration: Env.CoverageArgmax
// and Env.IntersectOrArgmax must return exactly what counting every
// constraint's region returns — Grid.CoverageArgmax and the per-cell
// refimpl oracle over Env.Region of each constraint — on the quick grid,
// with the mask cache on and off.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/netsim"
	"activegeo/internal/refimpl"
)

// quickResDeg is the quick lab's grid resolution.
const quickResDeg = 1.5

var (
	quickOnce sync.Once
	quickEnv  *geoloc.Env
	// landmarks is a fixed pool, so the Env's caches stay small however
	// many constraint sets a fuzz run draws.
	landmarks []geo.Point
)

func argmaxEnv(t testing.TB) *geoloc.Env {
	t.Helper()
	quickOnce.Do(func() {
		quickEnv = geoloc.NewEnv(quickResDeg)
		rng := rand.New(rand.NewSource(14))
		landmarks = make([]geo.Point, 48)
		for i := range landmarks {
			landmarks[i] = geo.Point{
				Lat: math.Asin(2*rng.Float64()-1) * 180 / math.Pi,
				Lon: 360*rng.Float64() - 180,
			}
		}
	})
	return quickEnv
}

func landmarkID(i int) netsim.HostID { return netsim.HostID(fmt.Sprintf("argmax-lm-%02d", i)) }

// randomConstraints draws n disk and ring constraints around a random
// target, as a noisy delay model would: each landmark's bounds bracket
// its true distance, but some underestimate it, so some sets have an
// empty intersection and some do not.
func randomConstraints(env *geoloc.Env, rng *rand.Rand, n int) []geoloc.Constraint {
	target := landmarks[rng.Intn(len(landmarks))]
	target = geo.DestinationPoint(target, 360*rng.Float64(), 2000*rng.Float64())
	cs := make([]geoloc.Constraint, 0, n)
	for k := 0; k < n; k++ {
		i := rng.Intn(len(landmarks))
		lm := landmarks[i]
		d := geo.DistanceKm(lm, target)
		maxKm := d*(0.8+0.7*rng.Float64()) + 200
		if rng.Intn(2) == 0 {
			cs = append(cs, geoloc.DiskConstraint(landmarkID(i), geo.Cap{Center: lm, RadiusKm: maxKm}))
			continue
		}
		minKm := d * (0.5 + 0.7*rng.Float64())
		cs = append(cs, env.RingConstraint(landmarkID(i), geo.Ring{Center: lm, MinKm: minKm, MaxKm: maxKm}))
	}
	return cs
}

// withMasks runs fn with the env's mask cache on or off, restoring it
// after. Tests in this package run sequentially, so the toggle is safe.
func withMasks(env *geoloc.Env, on bool, fn func()) {
	saved := env.Masks
	if !on {
		env.Masks = nil
	}
	defer func() { env.Masks = saved }()
	fn()
}

// checkArgmax compares both strict-first entry points against counting
// every built region, with the bit-sliced kernel and the per-cell
// oracle.
func checkArgmax(t testing.TB, env *geoloc.Env, cs []geoloc.Constraint) {
	t.Helper()
	regions := make([]*grid.Region, len(cs))
	for i, c := range cs {
		regions[i] = env.Region(c)
	}
	want, wantN := env.Grid.CoverageArgmax(regions)
	oracle, oracleN := refimpl.CoverageArgmax(env.Grid, regions)
	if !want.Equal(oracle) || wantN != oracleN {
		t.Fatalf("kernel argmax (%d cells, count %d) differs from the oracle (%d cells, count %d)",
			want.Count(), wantN, oracle.Count(), oracleN)
	}
	got, gotN := env.CoverageArgmax(cs)
	if !got.Equal(want) || gotN != wantN {
		t.Fatalf("%d constraints %+v: strict-first argmax %d cells, count %d; counting every region gives %d cells, count %d",
			len(cs), cs, got.Count(), gotN, want.Count(), wantN)
	}

	// IntersectOrArgmax: the strict intersection when nonempty, else the
	// argmax if a majority agrees, else nothing.
	wantIOA := env.Grid.FullRegion()
	if len(cs) == 0 {
		wantIOA = env.Grid.NewRegion()
	}
	for _, r := range regions {
		wantIOA.IntersectWith(r)
	}
	if wantIOA.Empty() && oracleN*2 >= len(cs) {
		wantIOA = oracle
	}
	if ioa := env.IntersectOrArgmax(cs); !ioa.Equal(wantIOA) {
		t.Fatalf("IntersectOrArgmax: %d cells, want %d", ioa.Count(), wantIOA.Count())
	}
}

// TestConstraintArgmaxEquivalence: random constraint sets plus every
// edge of the strict-first path, mask cache on and off. Both the strict
// path and the fallback must have run.
func TestConstraintArgmaxEquivalence(t *testing.T) {
	env := argmaxEnv(t)
	before := env.Stats()
	rng := rand.New(rand.NewSource(2018))

	lm, far := landmarks[0], landmarks[1]
	for geo.DistanceKm(lm, far) < 4000 {
		far = geo.DestinationPoint(far, 90, 1000)
	}
	big := geoloc.DiskConstraint(landmarkID(0), geo.Cap{Center: lm, RadiusKm: 3000})
	ringAt := func(minKm, maxKm float64) geoloc.Constraint {
		return env.RingConstraint(landmarkID(0), geo.Ring{Center: lm, MinKm: minKm, MaxKm: maxKm})
	}
	edges := map[string][]geoloc.Constraint{
		"n=0":       nil,
		"n=1":       {big},
		"n=1 empty": {ringAt(0, 0)},
		"strict success": {
			big,
			geoloc.DiskConstraint(landmarkID(2), geo.Cap{Center: landmarks[2], RadiusKm: geo.DistanceKm(landmarks[2], lm) + 500}),
			ringAt(200, 2000),
		},
		// The smallest constraint's region is already empty: an
		// inverted ring, whose finite inner bound drops the center cell.
		"fail on the smallest": {big, ringAt(1000, 0), ringAt(100, 900)},
		// The first constraint intersected in empties the region.
		"fail on first": {
			geoloc.DiskConstraint(landmarkID(1), geo.Cap{Center: far, RadiusKm: 600}),
			geoloc.DiskConstraint(landmarkID(0), geo.Cap{Center: lm, RadiusKm: 500}),
			big,
		},
		// Every constraint but the last agrees.
		"fail on last": {
			big, ringAt(300, 2500), ringAt(0, 1500),
			geoloc.DiskConstraint(landmarkID(1), geo.Cap{Center: far, RadiusKm: 300}),
		},
		// A zero-radius disk is its center cell alone.
		"MaxKm ≤ 0 disk": {big, geoloc.DiskConstraint(landmarkID(0), geo.Cap{Center: lm, RadiusKm: 0})},
		"MaxKm ≤ 0 ring": {big, ringAt(0, -1), ringAt(0, 0)},
		// Intersected in after the first, a MaxKm ≤ 0 disk keeps only
		// its own center cell, which is not the first disk's.
		"MaxKm ≤ 0 at two landmarks": {
			geoloc.DiskConstraint(landmarkID(0), geo.Cap{Center: lm, RadiusKm: -1}),
			geoloc.DiskConstraint(landmarkID(1), geo.Cap{Center: far, RadiusKm: 0}),
		},
		// MinKm below 1.5 cell diagonals: the shrink stays −Inf, so the
		// ring is a disk and keeps its center cell.
		"shrink stays -Inf": {big, ringAt(10, 1200)},
		// Sub-kilometre disks hold their center cell only by the center
		// rule, which the in-place intersect must restore; a ring whose
		// inner bound the center cell's distance exceeds must still
		// drop it.
		"center cell on the edge": {
			big,
			geoloc.DiskConstraint(landmarkID(0), geo.Cap{Center: lm, RadiusKm: 1}),
			geoloc.DiskConstraint(landmarkID(0), geo.Cap{Center: lm, RadiusKm: 0.5}),
		},
		"ring drops its center": {big, ringAt(1.5*111.195*quickResDeg+1, 900), geoloc.DiskConstraint(landmarkID(0), geo.Cap{Center: lm, RadiusKm: 1})},
	}
	for _, masks := range []bool{true, false} {
		withMasks(env, masks, func() {
			for name, cs := range edges {
				t.Run(fmt.Sprintf("%s/masks=%v", name, masks), func(t *testing.T) { checkArgmax(t, env, cs) })
			}
			for k := 0; k < 60; k++ {
				checkArgmax(t, env, randomConstraints(env, rng, 1+rng.Intn(40)))
			}
		})
	}

	after := env.Stats()
	if after.Strict == before.Strict || after.Fallbacks == before.Fallbacks {
		t.Fatalf("both paths must run: %d strict hits, %d fallbacks", after.Strict-before.Strict, after.Fallbacks-before.Fallbacks)
	}
}

// TestIntersectMatchesRegion: intersecting a constraint in place must
// give r ∩ Region(c) for any starting region, degenerate constraints
// included — CBG++'s baseline filter intersects in arbitrary order.
func TestIntersectMatchesRegion(t *testing.T) {
	env := argmaxEnv(t)
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 40; k++ {
		i := rng.Intn(len(landmarks))
		lm := landmarks[i]
		start := env.Grid.CapRegion(geo.Cap{Center: geo.DestinationPoint(lm, 360*rng.Float64(), 1500*rng.Float64()), RadiusKm: 500 + 4000*rng.Float64()})
		cs := append(randomConstraints(env, rng, 4),
			geoloc.DiskConstraint(landmarkID(i), geo.Cap{Center: lm, RadiusKm: 0}),
			geoloc.DiskConstraint(landmarkID(i), geo.Cap{Center: lm, RadiusKm: 1}),
			env.RingConstraint(landmarkID(i), geo.Ring{Center: lm, MinKm: 1000, MaxKm: 0}),
			env.RingConstraint(landmarkID(i), geo.Ring{Center: lm, MinKm: 300, MaxKm: 3000}),
		)
		for _, masks := range []bool{true, false} {
			withMasks(env, masks, func() {
				for _, c := range cs {
					got := start.Clone()
					env.Intersect(got, c)
					want := start.Clone()
					want.IntersectWith(env.Region(c))
					if !got.Equal(want) {
						t.Fatalf("constraint %+v: in place %d cells, want %d", c, got.Count(), want.Count())
					}
				}
			})
		}
	}
}

// FuzzConstraintArgmax: for any seed, constraint count and mask
// setting, the strict-first argmax equals counting every region.
func FuzzConstraintArgmax(f *testing.F) {
	f.Add(int64(1), uint8(6), true)
	f.Add(int64(7), uint8(40), false)
	f.Add(int64(2018), uint8(1), true)
	f.Add(int64(-3), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, masks bool) {
		env := argmaxEnv(t)
		rng := rand.New(rand.NewSource(seed))
		cs := randomConstraints(env, rng, int(n%64))
		withMasks(env, masks, func() { checkArgmax(t, env, cs) })
	})
}
