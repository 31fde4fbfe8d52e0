package stream

import (
	"errors"
	"fmt"
	"testing"

	"activegeo/internal/detect"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
)

// stubLocator records what it was handed and answers with a fixed
// region or error.
type stubLocator struct {
	region *grid.Region
	err    error
	got    []geoloc.Measurement
}

func (s *stubLocator) Name() string { return "stub" }

func (s *stubLocator) Locate(ms []geoloc.Measurement) (*grid.Region, error) {
	s.got = ms
	return s.region, s.err
}

// measured builds a successful measurement of n landmarks lm-00…,
// spread around Frankfurt with RTTs growing with distance.
func measured(n int) measure.BatchResult {
	res := &measure.Result{}
	for i := 0; i < n; i++ {
		lmLoc := geo.DestinationPoint(geo.Point{Lat: 50.11, Lon: 8.68}, float64(i)*37, 200+float64(i)*150)
		res.Phase2 = append(res.Phase2, measure.Sample{
			LandmarkID: netsim.HostID(fmt.Sprintf("lm-%02d", i)),
			Landmark:   lmLoc,
			RTTms:      4 + float64(i)*2.5 + float64(i%3),
			Trips:      1,
		})
	}
	return measure.BatchResult{Proxy: "srv-1", Result: res}
}

// flagging returns a landmark report flagging lm-00 … lm-(k-1).
func flagging(k int) *detect.LandmarkReport {
	r := &detect.LandmarkReport{}
	for i := 0; i < k; i++ {
		r.Flagged = append(r.Flagged, netsim.HostID(fmt.Sprintf("lm-%02d", i)))
	}
	return r
}

// TestAuditServer covers every branch of the shared per-server kernel,
// armed (a landmark report) and disarmed (nil), and pins the error text
// the golden fingerprints carry.
func TestAuditServer(t *testing.T) {
	env := geoloc.NewEnv(4)
	frankfurt := env.Grid.NewRegion()
	frankfurt.Add(env.Grid.CellAt(geo.Point{Lat: 50.11, Lon: 8.68}))
	spec := ServerSpec{ID: "srv-1", Provider: "A", Claimed: "DE"}
	measureErr := errors.New("measure: proxy unreachable")
	locateErr := errors.New("cbgpp: no consistent region")

	cases := []struct {
		name      string
		m         measure.BatchResult
		lm        *detect.LandmarkReport
		locErr    error
		wantStage string
		wantErr   string
		used      int
		excluded  int
		cells     int
	}{
		{name: "measure error/disarmed", m: measure.BatchResult{Proxy: "srv-1", Err: measureErr},
			wantStage: StageMeasure, wantErr: "measure: proxy unreachable"},
		{name: "measure error/armed", m: measure.BatchResult{Proxy: "srv-1", Err: measureErr}, lm: flagging(1),
			wantStage: StageMeasure, wantErr: "measure: proxy unreachable"},
		{name: "too few/disarmed", m: measured(3),
			wantStage: StageMeasure, wantErr: "experiments: only 3 usable measurements (need 4)", used: 3},
		{name: "too few after exclusion/armed", m: measured(10), lm: flagging(7),
			wantStage: StageMeasure, wantErr: "experiments: only 3 usable measurements (need 4)", used: 3, excluded: 7},
		{name: "locate error/disarmed", m: measured(10), locErr: locateErr,
			wantStage: StageLocate, wantErr: "cbgpp: no consistent region", used: 10},
		{name: "locate error/armed", m: measured(10), lm: flagging(1), locErr: locateErr,
			wantStage: StageLocate, wantErr: "cbgpp: no consistent region", used: 9, excluded: 1},
		{name: "success/disarmed", m: measured(10), used: 10, cells: 1},
		{name: "success/armed", m: measured(10), lm: flagging(1), used: 9, excluded: 1, cells: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			loc := &stubLocator{region: frankfurt, err: tc.locErr}
			sa := AuditServer(env, env.Mask, loc, tc.lm, tc.m, spec)

			if sa.ErrStage != tc.wantStage {
				t.Errorf("ErrStage = %q, want %q", sa.ErrStage, tc.wantStage)
			}
			switch {
			case tc.wantErr == "" && sa.Err != nil:
				t.Errorf("Err = %v, want nil", sa.Err)
			case tc.wantErr != "" && (sa.Err == nil || sa.Err.Error() != tc.wantErr):
				t.Errorf("Err = %v, want %q", sa.Err, tc.wantErr)
			}
			if sa.Used != tc.used || sa.Excluded != tc.excluded {
				t.Errorf("used/excluded = %d/%d, want %d/%d", sa.Used, sa.Excluded, tc.used, tc.excluded)
			}
			res := sa.Result
			if res == nil || res.ServerID != "srv-1" || res.Provider != "A" || res.ClaimedCountry != "DE" {
				t.Fatalf("Result does not describe the spec: %+v", res)
			}
			if got := res.Region.Count(); got != tc.cells {
				t.Errorf("region has %d cells, want %d", got, tc.cells)
			}
			// The locator sees exactly the unflagged samples, and only
			// when four or more survive.
			if tc.used >= 4 {
				if len(loc.got) != tc.used {
					t.Errorf("locator got %d measurements, want %d", len(loc.got), tc.used)
				}
				for _, x := range loc.got {
					if tc.lm.IsFlagged(x.LandmarkID) {
						t.Errorf("flagged landmark %s reached the locator", x.LandmarkID)
					}
				}
			} else if loc.got != nil {
				t.Errorf("locator ran on %d measurements", len(loc.got))
			}
			// Inspection runs only when armed and a region exists.
			wantN := 0
			if tc.lm != nil && tc.cells > 0 {
				wantN = tc.used
			}
			if sa.Inspection.N != wantN {
				t.Errorf("Inspection.N = %d, want %d", sa.Inspection.N, wantN)
			}
		})
	}
}

// TestStoreFingerprintRoundTrip: a failed server's row written through
// setResult prints its error and fault ledger, and the trailer counts
// them, in the format the golden fingerprints pin.
func TestStoreFingerprintRoundTrip(t *testing.T) {
	env := geoloc.NewEnv(4)
	spec := ServerSpec{ID: "srv-1", Provider: "A", Claimed: "DE"}
	loc := &stubLocator{err: errors.New("cbgpp: no consistent region")}
	sa := AuditServer(env, env.Mask, loc, nil, measured(10), spec)
	deg := &measure.Degradation{Planned: 12, Measured: 10, Retries: 3, ProbeFailures: 2,
		LostLandmarks: []netsim.HostID{"lm-10", "lm-11"}}

	s := NewStore()
	row := s.ensure(spec)
	s.setResult(batchItem{row: row, spec: spec, sig: 1}, 1, &sa, deg)
	s.resolveGroups()

	const want = "srv-1|uncertain|uncertain|uncertain||[]|0|err:locate:cbgpp: no consistent region" +
		"|cov:10/12:r3:f2:lost[lm-10 lm-11]:discfalse:budgetfalse:0.8333:degraded\n" +
		"tally:0/1/0 offcont:0 samecont:1 dc:0 group:0 mfail:0 lfail:1\n" +
		"faults: retries:3 probefail:2 lost:2 disc:0 degraded:1\n"
	if got := s.Fingerprint(); got != want {
		t.Fatalf("store fingerprint:\n%s\nwant:\n%s", got, want)
	}
}
