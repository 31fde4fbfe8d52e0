package hybrid

import (
	"math/rand"
	"testing"

	"activegeo/internal/algtest"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/spotter"
)

func TestLocate(t *testing.T) {
	cons, env := algtest.Fixture(t)
	model, err := spotter.Calibrate(cons)
	if err != nil {
		t.Fatal(err)
	}
	alg := New(env, model)
	if alg.Name() != "Hybrid" {
		t.Error("name")
	}
	rng := rand.New(rand.NewSource(51))
	berlin := geo.Point{Lat: 52.52, Lon: 13.405}
	ms := algtest.MeasureTarget(t, cons, "hyb-berlin", berlin, 25, rng)
	region, err := alg.Locate(ms)
	if err != nil {
		t.Fatal(err)
	}
	if region.Empty() {
		t.Fatal("empty Hybrid region")
	}
	c, _ := region.Centroid()
	if d := geo.DistanceKm(c, berlin); d > 5000 {
		t.Errorf("Hybrid centroid %.0f km from truth", d)
	}
}

func TestRingsSpanFiveSigma(t *testing.T) {
	cons, env := algtest.Fixture(t)
	model, err := spotter.Calibrate(cons)
	if err != nil {
		t.Fatal(err)
	}
	alg := New(env, model)
	a := cons.Anchors()[0]
	ms := []geoloc.Measurement{{LandmarkID: a.Host.ID, Landmark: a.Host.Loc, RTTms: 80}}
	rings := alg.Rings(ms)
	if len(rings) != 1 {
		t.Fatalf("rings = %d", len(rings))
	}
	mu, sig := model.MuKm(40), model.SigmaKm(40)
	wantMin := mu - SigmaSpan*sig
	if wantMin < 0 {
		wantMin = 0
	}
	if rings[0].MinKm != wantMin {
		t.Errorf("ring min %f, want %f", rings[0].MinKm, wantMin)
	}
	wantMax := mu + SigmaSpan*sig
	if wantMax > geo.HalfEquatorKm {
		wantMax = geo.HalfEquatorKm
	}
	if rings[0].MaxKm != wantMax {
		t.Errorf("ring max %f, want %f", rings[0].MaxKm, wantMax)
	}
}

func TestLocateNoMeasurements(t *testing.T) {
	cons, env := algtest.Fixture(t)
	model, err := spotter.Calibrate(cons)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(env, model).Locate(nil); err != geoloc.ErrNoMeasurements {
		t.Errorf("err = %v", err)
	}
}

// TestLocateMaskToggle: Hybrid's σ-span ring constraints are rasterized
// by Env.Region, so the quantized mask cache must leave its regions
// byte-identical to the per-cell ring scan.
func TestLocateMaskToggle(t *testing.T) {
	cons, env := algtest.Fixture(t)
	model, err := spotter.Calibrate(cons)
	if err != nil {
		t.Fatal(err)
	}
	alg := New(env, model)
	rng := rand.New(rand.NewSource(101))
	targets := map[string]geo.Point{
		"masktoggle-hyb-berlin": {Lat: 52.52, Lon: 13.405},
		"masktoggle-hyb-seoul":  {Lat: 37.57, Lon: 126.98},
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
