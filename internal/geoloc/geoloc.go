// Package geoloc defines the types shared by all active-geolocation
// algorithms: measurements, the Algorithm interface, and the common
// environment (grid + world map) predictions are produced in, including
// the paper's physical-plausibility exclusions (on land, between 60°S
// and 85°N).
package geoloc

import (
	"errors"
	"math"
	"sort"
	"sync/atomic"

	"activegeo/internal/geo"
	"activegeo/internal/grid"
	"activegeo/internal/netsim"
	"activegeo/internal/worldmap"
)

// Measurement is one round-trip-time observation of the target from a
// landmark in a known location. RTTms must already be corrected for
// measurement artifacts (proxy indirection, double round trips); see
// package measure.
type Measurement struct {
	LandmarkID netsim.HostID
	Landmark   geo.Point
	RTTms      float64
}

// OneWayMs returns the one-way travel time of the measurement.
func (m Measurement) OneWayMs() float64 { return geo.OneWayMs(m.RTTms) }

// Algorithm estimates a target's location from measurements.
type Algorithm interface {
	// Name identifies the algorithm ("CBG", "Quasi-Octant", …).
	Name() string
	// Locate returns the prediction region. An empty region means the
	// algorithm failed to produce any location consistent with the
	// measurements.
	Locate(ms []Measurement) (*grid.Region, error)
}

// ErrNoMeasurements is returned when Locate is called with no usable
// measurements.
var ErrNoMeasurements = errors.New("geoloc: no measurements")

// Env bundles the discretization grid, the world-map masks, and the
// landmark distance-field cache shared by algorithm implementations.
// Build one per experiment and reuse it; the mask construction dominates
// setup cost, and the distance cache amortizes landmark geometry across
// every target and every algorithm that shares the Env.
type Env struct {
	Grid *grid.Grid
	Mask *worldmap.Mask

	// Field caches the distance-to-every-cell slice of each landmark.
	// All five algorithms draw from it, so a landmark's great-circle
	// geometry is computed once per Env, not once per (target,
	// algorithm). Shared slices are immutable.
	Field *grid.DistanceField

	// Masks caches each landmark's radius-quantized cap-mask family,
	// built from Field, so cap/ring region construction is word-wise
	// with the exact distance predicate confined to the quantization
	// annulus (DESIGN.md §8). nil disables the mask fast path; every
	// geometry method then falls back to the per-cell distance scans
	// and produces byte-identical results — the toggle benchaudit's
	// mask-off column uses.
	Masks *grid.MaskCache

	// strictHits and fallbacks count how CoverageArgmax resolved its
	// calls; see Stats.
	strictHits, fallbacks atomic.Uint64
}

// DefaultFieldEntries bounds the distance cache. The paper-scale
// constellation has ~1050 landmarks (250 anchors + 800 probes); at 1°
// resolution one entry is ≈165 KB, so the default bound caps the cache
// near 340 MB in the worst case while never evicting in practice.
const DefaultFieldEntries = 2048

// NewEnv builds an environment at the given grid resolution (degrees).
func NewEnv(resDeg float64) *Env {
	g := grid.New(resDeg)
	f := grid.NewDistanceField(g, DefaultFieldEntries)
	return &Env{
		Grid:  g,
		Mask:  worldmap.NewMask(g),
		Field: f,
		Masks: grid.NewMaskCache(f, DefaultFieldEntries, grid.DefaultMaskStepKm),
	}
}

// masksFor returns the landmark's quantized mask family, or nil when
// the mask cache is disabled.
func (e *Env) masksFor(id netsim.HostID, landmark geo.Point) *grid.CapMasks {
	if e.Masks == nil {
		return nil
	}
	return e.Masks.Masks(grid.FieldKey{ID: string(id), Lat: landmark.Lat, Lon: landmark.Lon})
}

// Distances returns the cached distance-from-landmark slice for a
// measurement's landmark (one float32 km per grid cell, in cell order).
func (e *Env) Distances(id netsim.HostID, landmark geo.Point) []float32 {
	return e.Field.Distances(grid.FieldKey{ID: string(id), Lat: landmark.Lat, Lon: landmark.Lon})
}

// IntersectWithinFor prunes r to the cells within maxKm of the
// landmark — Region.IntersectWithinKm over the landmark's cached
// distances, word-wise against the quantized masks when the mask cache
// is enabled. CBG's per-measurement disk intersection runs through
// here.
func (e *Env) IntersectWithinFor(r *grid.Region, id netsim.HostID, landmark geo.Point, maxKm float64) {
	if cm := e.masksFor(id, landmark); cm != nil {
		cm.IntersectWithinKm(r, maxKm)
		return
	}
	r.IntersectWithinKm(e.Distances(id, landmark), maxKm)
}

// InvalidateLandmark evicts the host's entries from both the distance
// field and the mask cache, returning how many of each were dropped.
// Call it when the fleet churns (a landmark decommissioned, or a host
// re-provisioned at a new position); the host+position keys already
// prevent stale entries from being *served* for a moved host, and this
// reclaims their memory immediately.
func (e *Env) InvalidateLandmark(id netsim.HostID) (fields, masks int) {
	fields = e.Field.Invalidate(string(id))
	if e.Masks != nil {
		masks = e.Masks.Invalidate(string(id))
	}
	return fields, masks
}

// Constraint is one landmark's distance constraint on the target: the
// cells whose cached distance d from Center satisfies
// MinExclusiveKm < d ≤ MaxKm (none when MaxKm ≤ 0). A disk is a ring
// whose MinExclusiveKm is −Inf; its region always holds the center's
// cell, as AddCap's does. A ring with a finite inner bound never holds
// it, as the subtracted inner cap's own center rule removes it.
type Constraint struct {
	ID             netsim.HostID
	Center         geo.Point
	MinExclusiveKm float64
	MaxKm          float64
}

// DiskConstraint is the constraint of the landmark's cap.
func DiskConstraint(id netsim.HostID, c geo.Cap) Constraint {
	return Constraint{ID: id, Center: c.Center, MinExclusiveKm: math.Inf(-1), MaxKm: c.RadiusKm}
}

// RingConstraint is the constraint of the landmark's ring, with
// RingRegion's semantics: the inner cap is subtracted only when it can
// be shrunk by 1.5 cell diagonals while staying positive; otherwise
// boundary cells, which may still contain ring area, are kept and the
// ring is a disk.
func (e *Env) RingConstraint(id netsim.HostID, ring geo.Ring) Constraint {
	shrink := math.Inf(-1)
	if ring.MinKm > 0 {
		if s := ring.MinKm - 1.5*111.195*e.Grid.Resolution(); s > 0 {
			shrink = s
		}
	}
	return Constraint{ID: id, Center: ring.Center, MinExclusiveKm: shrink, MaxKm: ring.MaxKm}
}

func (c Constraint) disk() bool { return math.IsInf(c.MinExclusiveKm, -1) }

// Region builds the constraint's region from the landmark's cached
// distance field. With the mask cache enabled the fill is word-wise
// against the bracketing quantized masks; otherwise every cell's
// distance is tested. Both paths apply the same float64 predicate to
// every boundary cell, so the regions are byte-identical.
func (e *Env) Region(c Constraint) *grid.Region {
	r := e.Grid.NewRegion()
	if c.MaxKm > 0 {
		switch cm := e.masksFor(c.ID, c.Center); {
		case cm == nil:
			for i, d := range e.Distances(c.ID, c.Center) {
				dd := float64(d)
				if dd <= c.MaxKm && dd > c.MinExclusiveKm {
					r.Add(i)
				}
			}
		case c.disk():
			cm.FillWithinKm(r, c.MaxKm)
		default:
			cm.FillRingKm(r, c.MinExclusiveKm, c.MaxKm)
		}
	}
	if cc := e.Grid.CellAt(c.Center); c.disk() {
		r.Add(cc)
	} else {
		r.Remove(cc)
	}
	return r
}

// Intersect prunes r to r ∩ Region(c) in place, without building the
// constraint's region: only r's cells see the distance predicate.
func (e *Env) Intersect(r *grid.Region, c Constraint) {
	cc := e.Grid.CellAt(c.Center)
	keepCenter := c.disk() && r.Contains(cc)
	if c.MaxKm > 0 {
		r.IntersectRingKm(e.Distances(c.ID, c.Center), c.MinExclusiveKm, c.MaxKm)
	} else {
		r.Clear()
	}
	if keepCenter {
		r.Add(cc)
	} else if !c.disk() {
		r.Remove(cc)
	}
}

// CoverageArgmax returns the cells covered by the most constraint
// regions, and that count: Grid.CoverageArgmax over every Region(c),
// computed strict-first. Starting from the region of the constraint
// with the smallest MaxKm, it intersects every other constraint in
// place. If a cell survives, it is covered by all len(cs) regions,
// which no cell can beat, so the strict intersection is exactly the
// argmax and no other region is built. Only when the intersection is
// empty are all the regions built and counted (DESIGN.md §8).
func (e *Env) CoverageArgmax(cs []Constraint) (*grid.Region, int) {
	if len(cs) == 0 {
		return e.Grid.NewRegion(), 0
	}
	first := 0
	for i, c := range cs {
		if c.MaxKm < cs[first].MaxKm {
			first = i
		}
	}
	strict := e.Region(cs[first])
	for i := 0; i < len(cs) && !strict.Empty(); i++ {
		if i != first {
			e.Intersect(strict, cs[i])
		}
	}
	if !strict.Empty() {
		e.strictHits.Add(1)
		return strict, len(cs)
	}
	e.fallbacks.Add(1)
	regions := make([]*grid.Region, len(cs))
	for i, c := range cs {
		regions[i] = e.Region(c)
	}
	return e.Grid.CoverageArgmax(regions)
}

// IntersectOrArgmax multilaterates ring/disk constraints: the strict
// intersection of all of them when it is nonempty; when noise makes it
// empty (common for ring constraints at world scale, §5), the cells
// covered by the largest consistent subset. The strict path keeps
// successful predictions small — the behaviour behind the paper's
// Figure 9C, where ring-based algorithms produce much smaller (and
// often wrong) regions than CBG.
func (e *Env) IntersectOrArgmax(cs []Constraint) *grid.Region {
	best, count := e.CoverageArgmax(cs)
	// Octant's weighted regions reduce to the maximum-coverage cells
	// when all weights are equal — but a region where only a minority
	// of constraints agree is no prediction at all, so require a clear
	// majority.
	if count*2 < len(cs) {
		return e.Grid.NewRegion()
	}
	return best
}

// ArgmaxStats counts how CoverageArgmax resolved its calls: by the
// strict intersection, or by building and counting every region.
type ArgmaxStats struct {
	Strict    uint64
	Fallbacks uint64
}

// Stats returns a snapshot of the CoverageArgmax counters.
func (e *Env) Stats() ArgmaxStats {
	return ArgmaxStats{Strict: e.strictHits.Load(), Fallbacks: e.fallbacks.Load()}
}

// PadKm is the conservative rasterization margin for this grid: a cell
// should be kept by a disk constraint if any part of the cell could be
// inside the disk, which we approximate by padding the disk radius with
// (slightly more than) half the cell diagonal. Without this, a tight but
// correct disk can drop the very cell containing the target.
func (e *Env) PadKm() float64 {
	return 0.8 * 111.195 * e.Grid.Resolution()
}

// ApplyExclusions intersects the region with the land mask (which already
// excludes terrain north of 85°N and south of 60°S). If no land cell
// survives — a prediction entirely at sea — the latitude exclusion alone
// is applied, so the caller still sees where the algorithm pointed.
func (e *Env) ApplyExclusions(r *grid.Region) *grid.Region {
	masked := r.Clone()
	masked.IntersectWith(e.Mask.LandRef())
	if !masked.Empty() {
		return masked
	}
	sea := r.Clone()
	sea.Filter(func(p geo.Point) bool { return p.Lat <= 85 && p.Lat >= -60 })
	return sea
}

// Collapse deduplicates measurements by landmark, keeping the minimum RTT
// for each — the standard treatment, since queueing can only add delay.
// The result is sorted by landmark ID for determinism.
func Collapse(ms []Measurement) []Measurement {
	best := map[netsim.HostID]Measurement{}
	for _, m := range ms {
		if cur, ok := best[m.LandmarkID]; !ok || m.RTTms < cur.RTTms {
			best[m.LandmarkID] = m
		}
	}
	out := make([]Measurement, 0, len(best))
	for _, m := range best {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LandmarkID < out[j].LandmarkID })
	return out
}

// RingRegion builds the region covered by a spherical annulus.
func RingRegion(g *grid.Grid, ring geo.Ring) *grid.Region {
	outer := g.CapRegion(geo.Cap{Center: ring.Center, RadiusKm: ring.MaxKm})
	if ring.MinKm > 0 {
		inner := g.CapRegion(geo.Cap{Center: ring.Center, RadiusKm: ring.MinKm})
		// Keep boundary cells: a cell whose center is just inside MinKm
		// may still contain ring area, so only subtract the strict
		// interior by shrinking the inner cap by one cell diagonal.
		shrink := ring.MinKm - 1.5*111.195*g.Resolution()
		if shrink > 0 {
			inner = g.CapRegion(geo.Cap{Center: ring.Center, RadiusKm: shrink})
			outer.SubtractWith(inner)
		}
	}
	return outer
}
