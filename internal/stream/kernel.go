package stream

import (
	"fmt"
	"sync"
	"sync/atomic"

	"activegeo/internal/assess"
	"activegeo/internal/detect"
	"activegeo/internal/geoloc"
	"activegeo/internal/measure"
	"activegeo/internal/worldmap"
)

// Audit pipeline stage names, as recorded for failed servers in
// experiments.AuditRun.Errors, the store and the fingerprint.
const (
	StageMeasure = "measure"
	StageLocate  = "locate"
)

// ServerAudit is one server's pass through the per-server pipeline.
type ServerAudit struct {
	// Result is the claim assessment. Its Region is the localization,
	// empty when ErrStage is set.
	Result *assess.Result
	// ErrStage is StageMeasure or StageLocate when the pipeline produced
	// no region, with Err saying why; "" otherwise.
	ErrStage string
	Err      error
	// Used counts the measurements handed to the locator; Excluded the
	// ones dropped because a flagged landmark reported them.
	Used     int
	Excluded int
	// Inspection is the raw manipulation fit, before the population
	// judgment (zero when disarmed or when the region is empty).
	Inspection detect.Inspection
}

// AuditServer runs one measured server through the §6 per-server
// pipeline that both Lab.Audit and the streaming Auditor call: drop the
// samples of landmarks lm flags, require four usable measurements,
// localize with loc, assess the claim against the region and, when lm
// is non-nil (the adversary plan is armed), inspect the fit for
// manipulation. It is a pure function of its arguments, so the engines
// may call it from any worker in any order.
func AuditServer(env *geoloc.Env, mask *worldmap.Mask, loc geoloc.Algorithm, lm *detect.LandmarkReport, m measure.BatchResult, spec ServerSpec) ServerAudit {
	var sa ServerAudit
	region := env.Grid.NewRegion()
	var ms []geoloc.Measurement
	if m.Err != nil {
		sa.ErrStage, sa.Err = StageMeasure, m.Err
	} else {
		ms = m.Result.Measurements()
		if lm != nil {
			// Flagged landmarks' reports are poison: drop them before
			// fitting a region.
			kept := make([]geoloc.Measurement, 0, len(ms))
			for _, x := range ms {
				if !lm.IsFlagged(x.LandmarkID) {
					kept = append(kept, x)
				}
			}
			sa.Excluded = len(ms) - len(kept)
			ms = kept
		}
		sa.Used = len(ms)
		if len(ms) < 4 {
			// The golden fingerprint SHAs pin this text byte for byte.
			sa.ErrStage, sa.Err = StageMeasure, fmt.Errorf("experiments: only %d usable measurements (need 4)", len(ms))
		} else if r, err := loc.Locate(ms); err != nil {
			sa.ErrStage, sa.Err = StageLocate, err
		} else {
			region = r
		}
	}
	if lm != nil {
		if c, ok := region.Centroid(); ok {
			sa.Inspection = detect.InspectServer(ms, c, detect.DefaultInspectConfig())
		}
	}
	sa.Result = assess.Assess(mask, region, string(spec.ID), spec.Provider, spec.Claimed)
	return sa
}

// ParallelFor runs fn(i) for every i in [0, n) on at most workers
// goroutines and returns when all calls have completed. Work is handed
// out by an atomic counter, so fn must write its result into a
// per-index slot and must not rely on call order: determinism comes
// from per-entity random streams, never from scheduling. With
// workers ≤ 1 the calls run inline in index order — the serial
// reference the determinism tests compare the parallel runs against.
func ParallelFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
