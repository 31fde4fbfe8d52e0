package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"activegeo/internal/datacenter"
	"activegeo/internal/experiments"
	"activegeo/internal/geoloc"
	"activegeo/internal/grid"
	"activegeo/internal/measure"
	"activegeo/internal/stream"
)

const (
	// The constellation is smaller than the quick lab's 80 anchors and
	// 120 probes: every pass re-runs the mesh cross-validation, whose
	// cost grows with anchors × landmarks (about 4 s a pass on the quick
	// mesh on a 2-core machine), and a run must fit many passes.
	churnAnchors    = 40
	churnProbes     = 60
	churnFleet      = 256  // synthetic servers
	churnDeltas     = 20   // delta passes per round
	churnRotateFrac = 0.02 // share of servers whose claim rotates before a delta pass
	churnBatch      = 64
	churnQueue      = 2
	// churnPlan is the DefaultAttackMatrix point the adversary is armed at.
	churnPlan = "decoy-blend+byz"
)

// streamChurn is continuous re-verification: a streaming auditor over a
// synthetic fleet provisioned per batch, with the adversary armed. Each
// round runs one full pass on a fresh auditor, then delta passes, each
// after a seeded 2% of servers change their claimed country.
type streamChurn struct {
	seed    int64
	workers int

	lab  *experiments.Lab
	plan measure.AdversaryPlan
	src  *rotatingSource

	// prevFP is the fingerprint the previous round's delta passes left
	// in its store; this round's full pass over the same claims must
	// reproduce it.
	prevFP string

	fullMs, deltaMs []float64
	audited, total  int
}

func newStreamChurn(seed int64, workers int) bench {
	return &streamChurn{seed: seed, workers: workers}
}

func (s *streamChurn) setupEachRound() bool { return false }

func attackPlan(name string) (measure.AdversaryPlan, error) {
	for _, p := range experiments.DefaultAttackMatrix() {
		if p.Name == name {
			return p.Plan, nil
		}
	}
	return measure.AdversaryPlan{}, fmt.Errorf("no attack point %q", name)
}

func (s *streamChurn) setup() error {
	cfg := experiments.QuickConfig()
	cfg.Concurrency = s.workers
	cfg.Anchors, cfg.Probes = churnAnchors, churnProbes
	lab, err := newLab(cfg, s.seed)
	if err != nil {
		return err
	}
	plan, err := attackPlan(churnPlan)
	if err != nil {
		return err
	}
	s.lab, s.plan = lab, plan
	lab.Adversary = &s.plan
	synth := stream.NewSynthSource(lab.Net, churnFleet, s.seed^0x5eed)
	s.src = newRotatingSource(synth, s.seed, datacenter.HostingCountries())
	s.prevFP = ""
	return nil
}

// auditor builds a streaming auditor wired like Lab.StreamingAuditor
// (same stream seed, fault-free policy), with the locator and the batch
// callback supplied by the benchmark.
func (s *streamChurn) auditor(loc geoloc.Algorithm, onBatch func(stream.BatchStats)) *stream.Auditor {
	lab := s.lab
	return stream.New(stream.Config{
		Cons:        lab.Cons,
		Client:      lab.Client,
		Env:         lab.Env,
		Mask:        lab.Env.Mask,
		Locator:     loc,
		Seed:        auditStreamSeed(s.seed),
		Adversary:   lab.Adversary,
		Concurrency: s.workers,
		BatchSize:   churnBatch,
		QueueDepth:  churnQueue,
		OnBatchDone: onBatch,
	})
}

func (s *streamChurn) round(rc roundCtx) (roundResult, error) {
	tr := rc.tr
	ctx := context.Background()
	var passSpan int
	onBatch := func(b stream.BatchStats) {
		end := time.Now()
		start := end.Add(-time.Duration(b.WallMs * 1e6))
		tr.record("stream.batch", fmt.Sprint(b.Index), passSpan, start, end)
	}
	loc := &tracedLocator{inner: s.lab.CBGpp, layer: "cbgpp", tr: tr}
	a := s.auditor(loc, onBatch)
	s.src.tr = tr

	var rr roundResult
	sync1 := func(name string) (stream.PassStats, time.Duration, error) {
		passSpan = tr.begin(name, "", rc.root)
		loc.parent, s.src.parent = passSpan, passSpan
		t0 := time.Now()
		st, err := a.Sync(ctx, s.src)
		d := time.Since(t0)
		tr.end(passSpan)
		return st, d, err
	}

	st, d, err := sync1("stream.full_pass")
	if err != nil {
		return rr, err
	}
	s.fullMs = append(s.fullMs, float64(d)/1e6)
	rr.attempted += st.Audited
	rr.opsPerSec = float64(st.Audited) / d.Seconds()
	if s.prevFP != "" && a.Store().Fingerprint() != s.prevFP {
		rr.checkErr = fmt.Errorf("stream-churn: a full pass over the rotated claims differs from the previous round's incremental store")
	}
	if st.Audited != churnFleet {
		rr.checkErr = fmt.Errorf("stream-churn: full pass audited %d of %d servers", st.Audited, churnFleet)
	}

	for k := 0; k < churnDeltas; k++ {
		dirty := s.src.rotate()
		t0 := time.Now()
		st, _, err := sync1("stream.delta_pass")
		if err != nil {
			return rr, err
		}
		// Re-audit latency: from the claim rotation until Sync returns
		// with every updated verdict in the store.
		lat := float64(time.Since(t0)) / 1e6
		rr.latMs = append(rr.latMs, lat)
		s.deltaMs = append(s.deltaMs, lat)
		s.audited += st.Audited
		s.total += st.Total
		rr.attempted += len(dirty)
		// The full pass was the auditor's pass 1.
		if err := checkDelta(a.Store(), s.src, dirty, st, uint32(k+2)); err != nil {
			rr.failed += len(dirty)
			rr.checkErr = err
		}
	}
	// Batches report only once they end; the calls made inside them
	// were recorded under the pass.
	tr.adopt("stream.batch", "cbgpp.locate")
	tr.adopt("stream.batch", "stream.release")
	stats := a.Store().Stats()
	rr.failed += stats.MeasureFailures + stats.LocateFailures
	s.prevFP = a.Store().Fingerprint()
	return rr, nil
}

// checkDelta verifies one delta pass: it re-measured exactly the
// rotated servers, and each of them now holds a verdict from this pass.
func checkDelta(store *stream.Store, src *rotatingSource, dirty []int, st stream.PassStats, pass uint32) error {
	if st.Audited != len(dirty) {
		return fmt.Errorf("stream-churn: delta pass audited %d servers, %d claims rotated", st.Audited, len(dirty))
	}
	for _, i := range dirty {
		id := src.inner.Spec(i).ID
		if p := store.LastPass(id); p != pass {
			return fmt.Errorf("stream-churn: rotated server %s holds a verdict from pass %d, not from pass %d", id, p, pass)
		}
	}
	return nil
}

// check runs one full pass of a fresh auditor over the final claims:
// its store must equal the incrementally updated one.
func (s *streamChurn) check() error {
	s.src.tr = nil
	a := s.auditor(s.lab.CBGpp, nil)
	if _, err := a.Sync(context.Background(), s.src); err != nil {
		return err
	}
	return checkChurnStores(s.prevFP, a.Store().Fingerprint())
}

func checkChurnStores(incremental, fresh string) error {
	if incremental != fresh {
		return fmt.Errorf("stream-churn: incrementally updated store differs from a fresh full pass over the final claims")
	}
	return nil
}

func (s *streamChurn) layers(spans []span, m layerSet) error {
	self := selfTimes(spans)
	var syncSelf []float64
	for i, sp := range spans {
		if sp.Name == "stream.delta_pass" {
			syncSelf = append(syncSelf, float64(self[i])/1e6)
		}
	}
	m["stream.spec_us"] = 1000 * median(spansNamed(spans, "stream.spec"))
	m["stream.provision_ms"] = median(spansNamed(spans, "stream.provision"))
	m["stream.release_ms"] = median(spansNamed(spans, "stream.release"))
	m["stream.batch_ms"] = median(spansNamed(spans, "stream.batch"))
	m["stream.sync_self_ms"] = median(syncSelf)
	m["stream.dirty_ratio"] = ratio(s.audited, s.total)
	f := s.lab.Env.Field.Stats()
	mk := maskStats(s.lab)
	m["grid.field_hit_ratio"] = ratio(f.Hits, f.Hits+f.Misses)
	m["grid.mask_hit_ratio"] = ratio(mk.Hits, mk.Hits+mk.Misses)
	return nil
}

func (s *streamChurn) notes() []string {
	return []string{fmt.Sprintf("stream-churn: %d synthetic servers, seed %d, adversary %s, %d workers, batch %d; full pass p50 %.1f ms; %d delta passes per round, each after %.0f%% of claims rotate; reaudit p50 %.2f ms over %d passes",
		churnFleet, s.seed, churnPlan, s.workers, churnBatch, median(s.fullMs), churnDeltas, 100*churnRotateFrac, median(s.deltaMs), len(s.deltaMs))}
}

// rotatingSource wraps a stream source and changes the claimed country
// of a seeded set of servers each time rotate is called. Provision and
// Release pass through to the wrapped source, timed as stream spans.
type rotatingSource struct {
	inner     stream.Source
	prov      stream.Provisioner
	seed      int64
	countries []string
	claims    map[int]string // rotated claims by server index
	rotations int64

	tr     *tracer
	parent int
}

func newRotatingSource(inner stream.Source, seed int64, countries []string) *rotatingSource {
	prov, _ := inner.(stream.Provisioner)
	return &rotatingSource{inner: inner, prov: prov, seed: seed, countries: countries, claims: map[int]string{}}
}

// rotate picks this rotation's servers, a pure function of the seed and
// the rotation count, moves each one's claim to another country, and
// returns their indices in ascending order.
func (r *rotatingSource) rotate() []int {
	r.rotations++
	rng := rand.New(rand.NewSource(r.seed*7919 + r.rotations))
	n := r.inner.Len()
	k := max(1, int(float64(n)*churnRotateFrac+0.5))
	picked := rng.Perm(n)[:k]
	sort.Ints(picked)
	for _, i := range picked {
		cur := r.Spec(i).Claimed
		next := r.countries[rng.Intn(len(r.countries))]
		for next == cur {
			next = r.countries[rng.Intn(len(r.countries))]
		}
		r.claims[i] = next
	}
	return picked
}

// Len implements stream.Source.
func (r *rotatingSource) Len() int { return r.inner.Len() }

// Spec implements stream.Source.
func (r *rotatingSource) Spec(i int) stream.ServerSpec {
	sp := r.tr.begin("stream.spec", "", r.parent)
	spec := r.inner.Spec(i)
	if c, ok := r.claims[i]; ok {
		spec.Claimed = c
	}
	r.tr.end(sp)
	return spec
}

// Provision implements stream.Provisioner.
func (r *rotatingSource) Provision(specs []stream.ServerSpec) error {
	if r.prov == nil {
		return nil
	}
	sp := r.tr.begin("stream.provision", "", r.parent)
	defer r.tr.end(sp)
	return r.prov.Provision(specs)
}

// Release implements stream.Provisioner.
func (r *rotatingSource) Release(specs []stream.ServerSpec) {
	if r.prov == nil {
		return
	}
	sp := r.tr.begin("stream.release", "", r.parent)
	r.prov.Release(specs)
	r.tr.end(sp)
}

// tracedLocator records a span around every Locate call.
type tracedLocator struct {
	inner  geoloc.Algorithm
	layer  string
	tr     *tracer
	parent int
}

func (t *tracedLocator) Name() string { return t.inner.Name() }

func (t *tracedLocator) Locate(ms []geoloc.Measurement) (*grid.Region, error) {
	sp := t.tr.begin(t.layer+".locate", "", t.parent)
	defer t.tr.end(sp)
	return t.inner.Locate(ms)
}
