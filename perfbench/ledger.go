package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"activegeo/internal/assess"
	"activegeo/internal/atlas"
	"activegeo/internal/atlasd"
	"activegeo/internal/cbg"
	"activegeo/internal/detect"
	"activegeo/internal/experiments"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
)

// ledgerBenchtime is how long testing.Benchmark grows each entry.
const ledgerBenchtime = "300ms"

// ledgerFixture holds the pinned inputs of the microbenchmark ledger:
// all of it comes from the default seed, whatever the workload's seed,
// so ledger entries compare across runs and workloads.
type ledgerFixture struct {
	lab       *experiments.Lab
	landmarks []*atlas.Landmark // probe targets from the lab client
	proxies   []netsim.HostID
	vectors   [][]geoloc.Measurement
	regions   []*grid.Region // CBG++ regions of the vectors
	ids       []string
	edges     []detect.MeshEdge // the stream-churn workload's mesh
	insps     map[string]detect.Inspection
}

const ledgerServers = 16

func newLedgerFixture() (*ledgerFixture, error) {
	lab, err := quickLab(defaultSeed, 1)
	if err != nil {
		return nil, err
	}
	f := &ledgerFixture{lab: lab, landmarks: lab.Cons.Anchors()[:ledgerServers]}
	servers := lab.Fleet.Servers()[:ledgerServers]
	for _, s := range servers {
		f.proxies = append(f.proxies, s.Host.ID)
		f.ids = append(f.ids, string(s.Host.ID))
		rng := rand.New(rand.NewSource(measure.StreamSeed(defaultSeed, s.Host.ID)))
		res, err := measure.ProxiedTwoPhase(lab.Cons, lab.Client, s.Host.ID, measure.DefaultEta, rng)
		if err != nil {
			return nil, fmt.Errorf("measuring fixture server %s: %w", s.Host.ID, err)
		}
		ms := res.Measurements()
		reg, err := lab.CBGpp.Locate(ms)
		if err != nil {
			return nil, fmt.Errorf("locating fixture server %s: %w", s.Host.ID, err)
		}
		f.vectors = append(f.vectors, ms)
		f.regions = append(f.regions, reg)
	}

	cfg := experiments.QuickConfig()
	cfg.Anchors, cfg.Probes = churnAnchors, churnProbes
	churnLab, err := newLab(cfg, defaultSeed)
	if err != nil {
		return nil, err
	}
	plan, err := attackPlan(churnPlan)
	if err != nil {
		return nil, err
	}
	f.edges = detect.MeshEdges(churnLab.Cons, plan.ReportedPosition, plan.ReportBiasMs)

	// A store-sized population for JudgeServers: the fixture's
	// inspections repeated under distinct IDs up to the stream-churn
	// fleet size.
	icfg := detect.DefaultInspectConfig()
	f.insps = make(map[string]detect.Inspection, churnFleet)
	for i := 0; i < churnFleet; i++ {
		k := i % ledgerServers
		c, ok := f.regions[k].Centroid()
		if !ok {
			return nil, fmt.Errorf("fixture server %s has an empty region", f.ids[k])
		}
		f.insps[fmt.Sprintf("judge-%04d", i)] = detect.InspectServer(f.vectors[k], c, icfg)
	}
	return f, nil
}

// entry is one ledger row: testing.Benchmark's per-op figures plus the
// per-op latencies of its final run.
type entry struct {
	res testing.BenchmarkResult
	lat dist
}

func (e entry) nsPerOp() float64 { return float64(e.res.T.Nanoseconds()) / float64(e.res.N) }

// bench runs fn as a benchmark; fn(i) performs operation i and is timed
// one call at a time.
func benchOps(fn func(i int)) entry {
	var lat []float64
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		lat = lat[:0]
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			fn(i)
			lat = append(lat, float64(time.Since(t0))/1e6)
		}
	})
	return entry{res: res, lat: summarize(lat)}
}

// runLedger runs the per-layer microbenchmarks at one worker and adds
// their figures to m.
func runLedger(m layerSet) error {
	testing.Init()
	if err := flag.Set("test.benchtime", ledgerBenchtime); err != nil {
		return err
	}
	f, err := newLedgerFixture()
	if err != nil {
		return fmt.Errorf("building fixtures: %w", err)
	}
	lab := f.lab
	net := lab.Net

	rng := rand.New(rand.NewSource(defaultSeed))
	var sink float64
	e := benchOps(func(i int) {
		rtt, _ := net.Probe(lab.Client, f.landmarks[i%len(f.landmarks)].Host.ID, 443, rng, nil)
		sink += rtt
	})
	m["netsim.probe_ns"] = e.nsPerOp()
	m["netsim.probe_bytes"] = float64(e.res.AllocedBytesPerOp())
	m["netsim.probe_allocs"] = float64(e.res.AllocsPerOp())

	host := netsim.Host{ID: "ledger-host", Loc: geo.Point{Lat: 48.85, Lon: 2.35}, AccessDelayMs: 0.3}
	var addErr error
	e = benchOps(func(int) {
		h := host
		if err := net.AddHost(&h); err != nil && addErr == nil {
			addErr = err
		}
		net.RemoveHost(h.ID)
	})
	if addErr != nil {
		return fmt.Errorf("provisioning: %w", addErr)
	}
	m["netsim.provision_ns"] = e.nsPerOp()

	e = benchOps(func(i int) {
		p := f.proxies[i%len(f.proxies)]
		r := rand.New(rand.NewSource(measure.StreamSeed(defaultSeed, p)))
		if _, err := measure.ProxiedTwoPhase(lab.Cons, lab.Client, p, measure.DefaultEta, r); err != nil {
			sink++
		}
	})
	m["measure.server_ms"] = e.nsPerOp() / 1e6
	m["measure.server_allocs"] = float64(e.res.AllocsPerOp())

	for _, a := range labAlgorithms(lab) {
		alg := a.alg
		e = benchOps(func(i int) {
			if _, err := alg.Locate(f.vectors[i%len(f.vectors)]); err != nil {
				sink++
			}
		})
		m[a.layer+".locate_ms"] = e.lat.P50
		m[a.layer+".locate_tail_ms"] = e.lat.Tail
		m[a.layer+".locate_allocs"] = float64(e.res.AllocsPerOp())
	}

	e = benchOps(func(i int) {
		k := i % len(f.regions)
		s := lab.Fleet.Servers()[k]
		assess.Assess(lab.Env.Mask, f.regions[k], f.ids[k], s.Provider, s.ClaimedCountry)
	})
	m["assess.assess_us"] = e.nsPerOp() / 1e3
	m["assess.assess_allocs"] = float64(e.res.AllocsPerOp())

	xcfg := detect.DefaultCrossValidateConfig()
	e = benchOps(func(int) { detect.CrossValidate(f.edges, xcfg) })
	m["detect.crossvalidate_ms"] = e.nsPerOp() / 1e6
	icfg := detect.DefaultInspectConfig()
	e = benchOps(func(i int) {
		k := i % len(f.regions)
		c, _ := f.regions[k].Centroid()
		detect.InspectServer(f.vectors[k], c, icfg)
	})
	m["detect.inspect_us"] = e.nsPerOp() / 1e3
	e = benchOps(func(int) { detect.JudgeServers(f.insps, icfg) })
	m["detect.judge_ms"] = e.nsPerOp() / 1e6

	if err := ledgerAtlasd(lab.Cons, f.landmarks[0].Host.ID, m); err != nil {
		return err
	}
	ledgerSink = sink
	return nil
}

// ledgerSink keeps the benchmarked results observable, so the compiler
// cannot drop the calls that produce them.
var ledgerSink float64

// ledgerAtlasd times each campaign endpoint's ServeHTTP on a server
// whose model cache is warm.
func ledgerAtlasd(cons *atlas.Constellation, landmark netsim.HostID, m layerSet) error {
	srv := atlasd.NewServer(cons, atlasd.Config{Seed: defaultSeed, Opts: cbg.Options{Slowline: true}})
	h := srv.Handler()
	modelPath := "/v1/model/" + string(landmark)
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, modelPath, nil))
	report := func(seq int) []byte {
		b, _ := json.Marshal(atlasd.Report{Client: "ledger-client", Seq: int64(seq + 1),
			Samples: []atlasd.ReportSample{{LandmarkID: string(landmark), RTTms: 12.5}}})
		return b
	}
	gets := map[string]string{
		"phase1": "/v1/landmarks/phase1?draw=ledger",
		"phase2": "/v1/landmarks/phase2?continent=Europe&n=10&draw=ledger",
		"model":  modelPath,
	}
	for _, ep := range atlasdEndpoints {
		var bad int
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req *http.Request
				if ep == "report" {
					b.StopTimer()
					req = httptest.NewRequest(http.MethodPost, "/v1/report", bytes.NewReader(report(i)))
					b.StartTimer()
				} else {
					req = httptest.NewRequest(http.MethodGet, gets[ep], nil)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code/100 != 2 {
					bad++
				}
			}
		})
		if bad > 0 {
			return fmt.Errorf("atlasd %s: %d non-2xx responses", ep, bad)
		}
		m["atlasd."+ep+"_us"] = float64(res.T.Nanoseconds()) / float64(res.N) / 1e3
		m["atlasd."+ep+"_bytes"] = float64(res.AllocedBytesPerOp())
		m["atlasd."+ep+"_allocs"] = float64(res.AllocsPerOp())
	}
	return nil
}
