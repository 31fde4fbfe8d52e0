package octant

import (
	"math/rand"
	"testing"

	"activegeo/internal/algtest"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/mathx"
)

func synthSamples(n int, seed int64) []mathx.XY {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]mathx.XY, n)
	for i := range pts {
		d := rng.Float64() * 12000
		oneWay := d/120 + 3 + rng.ExpFloat64()*d/400 // speeds mostly ≤120 km/ms
		pts[i] = mathx.XY{X: d, Y: 2 * oneWay}       // stored as RTT
	}
	return pts
}

func TestFitCurvesBasic(t *testing.T) {
	cv, err := FitCurves(synthSamples(300, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Max distance must grow with delay and respect the baseline cap.
	prev := 0.0
	for _, oneWay := range []float64{5, 20, 50, 100, 200, 400} {
		d := cv.MaxDistanceKm(oneWay)
		if d < prev-1e-9 {
			t.Errorf("max distance decreased at %f ms: %f < %f", oneWay, d, prev)
		}
		if d > oneWay*geo.BaselineSpeedKmPerMs+1e-9 {
			t.Errorf("max distance %f exceeds baseline bound at %f ms", d, oneWay)
		}
		prev = d
	}
	// Min ≤ max everywhere.
	for _, oneWay := range []float64{5, 20, 50, 100, 200, 400} {
		if cv.MinDistanceKm(oneWay) > cv.MaxDistanceKm(oneWay) {
			t.Errorf("min > max at %f ms", oneWay)
		}
	}
	// Tiny delays imply no minimum distance.
	if cv.MinDistanceKm(0.1) != 0 {
		t.Error("minimum distance at near-zero delay should be 0")
	}
}

func TestFitCurvesErrors(t *testing.T) {
	if _, err := FitCurves(nil); err == nil {
		t.Error("want error for no samples")
	}
	if _, err := FitCurves(synthSamples(3, 2)); err == nil {
		t.Error("want error for too few samples")
	}
}

func TestMinDistanceNeverNegative(t *testing.T) {
	cv, err := FitCurves(synthSamples(200, 3))
	if err != nil {
		t.Fatal(err)
	}
	for oneWay := 0.0; oneWay < 500; oneWay += 7 {
		if d := cv.MinDistanceKm(oneWay); d < 0 {
			t.Fatalf("negative min distance %f at %f ms", d, oneWay)
		}
	}
}

func TestCalibrateAndLocate(t *testing.T) {
	cons, env := algtest.Fixture(t)
	cal, err := Calibrate(cons)
	if err != nil {
		t.Fatal(err)
	}
	alg := New(env, cal)
	if alg.Name() != "Quasi-Octant" {
		t.Error("name")
	}
	rng := rand.New(rand.NewSource(31))
	berlin := geo.Point{Lat: 52.52, Lon: 13.405}
	ms := algtest.MeasureTarget(t, cons, "oct-berlin", berlin, 25, rng)
	region, err := alg.Locate(ms)
	if err != nil {
		t.Fatal(err)
	}
	if region.Empty() {
		t.Fatal("Quasi-Octant returned an empty region")
	}
	c, _ := region.Centroid()
	if d := geo.DistanceKm(c, berlin); d > 4000 {
		t.Errorf("centroid %.0f km from truth (Octant is allowed to miss, but not wildly)", d)
	}
}

func TestLocateNoMeasurements(t *testing.T) {
	cons, env := algtest.Fixture(t)
	cal, err := Calibrate(cons)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(env, cal).Locate(nil); err != geoloc.ErrNoMeasurements {
		t.Errorf("err = %v", err)
	}
}

func TestRingsWellFormed(t *testing.T) {
	cons, env := algtest.Fixture(t)
	cal, err := Calibrate(cons)
	if err != nil {
		t.Fatal(err)
	}
	alg := New(env, cal)
	rng := rand.New(rand.NewSource(32))
	ms := algtest.MeasureTarget(t, cons, "oct-tokyo", geo.Point{Lat: 35.68, Lon: 139.65}, 20, rng)
	for _, r := range alg.Rings(ms) {
		if r.MinKm < 0 || r.MaxKm < r.MinKm {
			t.Errorf("malformed ring [%f, %f]", r.MinKm, r.MaxKm)
		}
		if r.MaxKm > geo.HalfEquatorKm+1 {
			t.Errorf("ring max %f beyond half equator", r.MaxKm)
		}
	}
}

func TestProbeFallsBackToPooled(t *testing.T) {
	cons, _ := algtest.Fixture(t)
	cal, err := Calibrate(cons)
	if err != nil {
		t.Fatal(err)
	}
	probe := cons.Probes()[0].Host.ID
	if cal.Curves(probe) != cal.pooled {
		t.Error("probe should use pooled curves")
	}
}

// TestLocateMaskToggle: Quasi-Octant's ring constraints are rasterized
// by Env.Region, so the quantized mask cache must leave its regions
// byte-identical to the per-cell ring scan.
func TestLocateMaskToggle(t *testing.T) {
	cons, env := algtest.Fixture(t)
	cal, err := Calibrate(cons)
	if err != nil {
		t.Fatal(err)
	}
	alg := New(env, cal)
	rng := rand.New(rand.NewSource(99))
	targets := map[string]geo.Point{
		"masktoggle-oct-berlin": {Lat: 52.52, Lon: 13.405},
		"masktoggle-oct-dakar":  {Lat: 14.72, Lon: -17.47},
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
