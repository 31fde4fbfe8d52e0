package cbgpp

import (
	"math/rand"
	"testing"

	"activegeo/internal/algtest"
	"activegeo/internal/cbg"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
)

func newAlg(t testing.TB, opts Options) (*CBGPP, *geoloc.Env) {
	t.Helper()
	cons, env := algtest.Fixture(t)
	cal, err := Calibrate(cons, opts)
	if err != nil {
		t.Fatal(err)
	}
	return New(env, cal, opts), env
}

func TestCoverageAcrossWorld(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	alg, _ := newAlg(t, Options{})
	rng := rand.New(rand.NewSource(61))

	misses := 0
	total := 0
	for name, loc := range algtest.TestCities() {
		ms := algtest.MeasureTarget(t, cons, "cbgpp-"+name, loc, 25, rng)
		if len(ms) < 10 {
			t.Fatalf("%s: only %d measurements", name, len(ms))
		}
		region, err := alg.Locate(ms)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if region.Empty() {
			t.Errorf("%s: CBG++ must never return an empty region", name)
			continue
		}
		total++
		if d := region.DistanceToPointKm(loc); d > 300 {
			misses++
			t.Logf("%s: region misses truth by %.0f km (area %.0f km²)", name, d, region.AreaKm2())
		}
	}
	// §5.1: CBG++ eliminated all remaining misses on the crowdsourced
	// hosts. Allow one marginal miss across the world set for grid
	// coarseness, but no more.
	if misses > 1 {
		t.Errorf("CBG++ missed %d/%d world targets", misses, total)
	}
}

func TestNeverWorseThanCBGCoverage(t *testing.T) {
	cons, env := algtest.Fixture(t)
	plainCal, err := cbg.Calibrate(cons, cbg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain := cbg.New(env, plainCal)
	pp, _ := newAlg(t, Options{})
	rng := rand.New(rand.NewSource(62))

	for name, loc := range algtest.TestCities() {
		ms := algtest.MeasureTarget(t, cons, "cmp-"+name, loc, 25, rng)
		cr, err := plain.Locate(ms)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := pp.Locate(ms)
		if err != nil {
			t.Fatal(err)
		}
		if pr.Empty() {
			t.Errorf("%s: CBG++ empty", name)
			continue
		}
		cMiss := cr.DistanceToPointKm(loc)
		pMiss := pr.DistanceToPointKm(loc)
		// CBG++ must not miss where plain CBG covers.
		if cMiss == 0 && pMiss > 300 {
			t.Errorf("%s: CBG covered the target but CBG++ missed by %.0f km", name, pMiss)
		}
	}
}

func TestBaselineRegionAlwaysCoversTarget(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	alg, _ := newAlg(t, Options{})
	rng := rand.New(rand.NewSource(63))
	for name, loc := range algtest.TestCities() {
		ms := algtest.MeasureTarget(t, cons, "base-"+name, loc, 25, rng)
		base := alg.BaselineRegion(ms)
		if base.Empty() {
			t.Fatalf("%s: empty baseline region", name)
		}
		if d := base.DistanceToPointKm(loc); d > 300 {
			t.Errorf("%s: baseline region misses truth by %.0f km — physically impossible unless the simulator broke the floor", name, d)
		}
	}
}

func TestAblationOptions(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	rng := rand.New(rand.NewSource(64))
	loc := geo.Point{Lat: 52.52, Lon: 13.405}
	ms := algtest.MeasureTarget(t, cons, "abl-berlin", loc, 25, rng)

	full, _ := newAlg(t, Options{})
	noSlow, _ := newAlg(t, Options{DisableSlowline: true})
	noFilter, _ := newAlg(t, Options{DisableBaselineFilter: true})

	for _, alg := range []*CBGPP{full, noSlow, noFilter} {
		r, err := alg.Locate(ms)
		if err != nil {
			t.Fatal(err)
		}
		if r.Empty() {
			t.Errorf("ablated variant returned empty region")
		}
	}
}

func TestLocateDetailedKeptCount(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	alg, _ := newAlg(t, Options{})
	rng := rand.New(rand.NewSource(65))
	ms := algtest.MeasureTarget(t, cons, "det-berlin", geo.Point{Lat: 52.52, Lon: 13.405}, 25, rng)
	_, kept, err := alg.LocateDetailed(ms)
	if err != nil {
		t.Fatal(err)
	}
	if kept < 1 || kept > len(geoloc.Collapse(ms)) {
		t.Errorf("kept = %d of %d", kept, len(ms))
	}
}

func TestLocateNoMeasurements(t *testing.T) {
	alg, _ := newAlg(t, Options{})
	if _, err := alg.Locate(nil); err != geoloc.ErrNoMeasurements {
		t.Errorf("err = %v", err)
	}
	if alg.Name() != "CBG++" {
		t.Error("name")
	}
	if alg.Calibration() == nil {
		t.Error("calibration accessor")
	}
}

// TestLocateMaskToggle: the two disks CBG++ builds per measurement are
// rasterized by Env.Region, so the quantized mask cache must leave the
// speed-constrained regions byte-identical to the per-cell fallback.
func TestLocateMaskToggle(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	alg, env := newAlg(t, Options{})
	rng := rand.New(rand.NewSource(98))
	targets := map[string]geo.Point{
		"masktoggle-pp-berlin": {Lat: 52.52, Lon: 13.405},
		"masktoggle-pp-tokyo":  {Lat: 35.68, Lon: 139.69},
	}
	for id, loc := range targets {
		ms := algtest.MeasureTarget(t, cons, id, loc, 25, rng)
		on, err := alg.Locate(ms)
		if err != nil {
			t.Fatal(err)
		}
		saved := env.Masks
		env.Masks = nil
		off, err := alg.Locate(ms)
		env.Masks = saved
		if err != nil {
			t.Fatal(err)
		}
		if !on.Equal(off) {
			t.Fatalf("%s: mask-on region (%d cells) differs from mask-off (%d cells)", id, on.Count(), off.Count())
		}
	}
}
