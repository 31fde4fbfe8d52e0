package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"sync"
	"time"

	"activegeo/internal/assess"
	"activegeo/internal/experiments"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
	"activegeo/internal/proxy"
)

// relocatePinSHA is the digest of every region's cells and every CBG++
// assessment over the quick fleet at the default seed.
const relocatePinSHA = "e6b6ea305b89298a9dfbacc45aeae5957e9fca0178297d659c4f6e7149968860"

// relocate is the Figure 9 comparison over a fixed corpus: set-up
// measures the quick fleet once, and each round re-runs all five
// algorithms plus the claim assessment on every server's vector.
// Geometry does all the work and the simulator none.
type relocate struct {
	seed    int64
	workers int

	lab     *experiments.Lab
	algs    []namedAlg
	servers []*proxy.Server
	vectors [][]geoloc.Measurement // nil where measurement failed

	warmSHA    string
	samples    float64 // mean measurements per server
	roundField grid.FieldStats
	roundMask  grid.MaskStats
}

type namedAlg struct {
	layer string
	alg   geoloc.Algorithm
}

func newRelocate(seed int64, workers int) bench {
	return &relocate{seed: seed, workers: workers}
}

func (r *relocate) setupEachRound() bool { return false }

// auditStreamSeed is the base seed Lab.Audit measures with (salt 17),
// so the corpus holds the audit's own measurements.
func auditStreamSeed(seed int64) int64 { return seed*1000003 + 17 }

// newLab builds the lab world (network, constellation, fleet,
// calibration) at the default seed and then makes seed the lab's
// Config.Seed, from which every measurement stream of an audit derives.
// The seed thus varies the inputs the pipeline measures without
// redrawing the world: on the quick lab, redrawing the world moves the
// audit's CPU time by about 12% between seeds, more than a regression
// bound can absorb.
func newLab(cfg experiments.Config, seed int64) (*experiments.Lab, error) {
	cfg.Seed = defaultSeed
	lab, err := experiments.NewLab(cfg)
	if err != nil {
		return nil, err
	}
	lab.Cfg.Seed = seed
	return lab, nil
}

func quickLab(seed int64, workers int) (*experiments.Lab, error) {
	cfg := experiments.QuickConfig()
	cfg.Concurrency = workers
	return newLab(cfg, seed)
}

func labAlgorithms(lab *experiments.Lab) []namedAlg {
	return []namedAlg{{"cbg", lab.CBG}, {"octant", lab.Octant}, {"spotter", lab.Spotter}, {"hybrid", lab.Hybrid}, {"cbgpp", lab.CBGpp}}
}

func (r *relocate) setup() error {
	lab, err := quickLab(r.seed, r.workers)
	if err != nil {
		return err
	}
	r.lab = lab
	r.algs = labAlgorithms(lab)
	r.servers = lab.Fleet.Servers()
	ids := serverIDs(r.servers)
	batch := &measure.Batch{
		Cons:        lab.Cons,
		Client:      lab.Client,
		Eta:         measure.DefaultEta,
		Concurrency: r.workers,
		Seed:        auditStreamSeed(r.seed),
	}
	results := batch.Run(context.Background(), ids)
	r.vectors = make([][]geoloc.Measurement, len(results))
	var total, n int
	for i, br := range results {
		if br.Err != nil {
			continue
		}
		r.vectors[i] = br.Result.Measurements()
		total += len(r.vectors[i])
		n++
	}
	r.samples = float64(total) / float64(max(n, 1))
	// One untimed round fills the distance-field and mask caches.
	r.warmSHA, _, _ = r.relocateAll(nil, -1)
	return nil
}

func maskStats(lab *experiments.Lab) grid.MaskStats {
	if lab.Env.Masks == nil {
		return grid.MaskStats{}
	}
	return lab.Env.Masks.Stats()
}

// relocateAll runs every algorithm and the assessment on every vector
// with the workers, returning the output digest, the per-server
// latencies and the number of failed operations.
func (r *relocate) relocateAll(tr *tracer, root int) (string, []float64, int) {
	n := len(r.servers)
	regions := make([][]*grid.Region, n)
	verdicts := make([]*assess.Result, n)
	lat := make([]float64, n)
	fails := make([]int, n)
	parallelFor(n, r.workers, func(i int) {
		s := r.servers[i]
		id := string(s.Host.ID)
		t0 := time.Now()
		sp := tr.begin("bench.relocate", id, root)
		regions[i] = make([]*grid.Region, len(r.algs))
		ms := r.vectors[i]
		for k, a := range r.algs {
			if ms == nil {
				fails[i]++
				continue
			}
			as := tr.begin(a.layer+".locate", id, sp)
			reg, err := a.alg.Locate(ms)
			tr.end(as)
			if err != nil {
				fails[i]++
				continue
			}
			regions[i][k] = reg
		}
		pp := regions[i][len(r.algs)-1]
		if pp == nil {
			pp = r.lab.Env.Grid.NewRegion()
		}
		as := tr.begin("assess.assess", id, sp)
		verdicts[i] = assess.Assess(r.lab.Env.Mask, pp, id, s.Provider, s.ClaimedCountry)
		tr.end(as)
		tr.end(sp)
		lat[i] = float64(time.Since(t0)) / 1e6
	})
	h := sha256.New()
	failed := 0
	for i := range regions {
		failed += fails[i]
		for _, reg := range regions[i] {
			hashRegion(h, reg)
		}
		v := verdicts[i]
		fmt.Fprintf(h, "%s|%s|%s|%s\n", v.ServerID, v.VerdictRaw, v.ContVerdict, v.ProbableCountry)
	}
	return hex.EncodeToString(h.Sum(nil)), lat, failed
}

// hashRegion writes a region's cell indices; a missing region writes a
// marker.
func hashRegion(h hash.Hash, reg *grid.Region) {
	if reg == nil {
		h.Write([]byte{0xff})
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(reg.Count()))
	h.Write(b[:])
	reg.Each(func(i int) {
		binary.LittleEndian.PutUint32(b[:], uint32(i))
		h.Write(b[:])
	})
}

func (r *relocate) round(rc roundCtx) (roundResult, error) {
	f0, m0 := r.lab.Env.Field.Stats(), maskStats(r.lab)
	t0 := time.Now()
	sha, lat, failed := r.relocateAll(rc.tr, rc.root)
	wall := time.Since(t0).Seconds()
	f1, m1 := r.lab.Env.Field.Stats(), maskStats(r.lab)
	r.roundField = grid.FieldStats{Hits: f1.Hits - f0.Hits, Misses: f1.Misses - f0.Misses}
	r.roundMask = grid.MaskStats{Hits: m1.Hits - m0.Hits, Misses: m1.Misses - m0.Misses, RefinedCells: m1.RefinedCells - m0.RefinedCells}
	locates := len(r.servers) * len(r.algs)
	return roundResult{
		attempted: locates,
		failed:    failed,
		opsPerSec: float64(locates) / wall,
		latMs:     lat,
		checkErr:  checkRelocate(r.seed, sha, r.warmSHA),
	}, nil
}

// checkRelocate compares a round's digest with the warm round's at any
// seed, and with the pin at the default seed.
func checkRelocate(seed int64, sha, warm string) error {
	if sha != warm {
		return fmt.Errorf("relocate: round digest %s differs from the warm round's %s", sha, warm)
	}
	if seed == defaultSeed && sha != relocatePinSHA {
		return fmt.Errorf("relocate: region digest %s, want pinned %s", sha, relocatePinSHA)
	}
	return nil
}

func (r *relocate) check() error { return nil }

func (r *relocate) layers(spans []span, m layerSet) error {
	m["measure.samples"] = r.samples
	m["grid.field_hit_ratio"] = ratio(r.roundField.Hits, r.roundField.Hits+r.roundField.Misses)
	m["grid.mask_hit_ratio"] = ratio(r.roundMask.Hits, r.roundMask.Hits+r.roundMask.Misses)
	m["grid.mask_refined_cells"] = float64(r.roundMask.RefinedCells)
	return nil
}

func (r *relocate) notes() []string {
	return []string{fmt.Sprintf("relocate: quick fleet seed %d, %d servers × %d algorithms, %d workers; %.1f samples per server",
		r.seed, len(r.servers), len(r.algs), r.workers, r.samples)}
}

func serverIDs(servers []*proxy.Server) []netsim.HostID {
	ids := make([]netsim.HostID, len(servers))
	for i, s := range servers {
		ids[i] = s.Host.ID
	}
	return ids
}

// parallelFor calls fn(i) for every i in [0, n) on at most workers
// goroutines and returns when all calls have.
func parallelFor(n, workers int, fn func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
