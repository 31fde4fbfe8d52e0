package stream

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"activegeo/internal/atlas"
	"activegeo/internal/cbgpp"
	"activegeo/internal/geo"
	"activegeo/internal/geoloc"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
	"activegeo/internal/telemetry"
)

// testEnv is a minimal measurement substrate for the stream package's
// own tests: a small constellation, a coarse grid and a calibrated
// CBG++, with no fleet — the synthetic source provisions servers itself.
type testEnv struct {
	net    *netsim.Network
	cons   *atlas.Constellation
	env    *geoloc.Env
	loc    geoloc.Algorithm
	client netsim.HostID
}

func newTestEnv(t *testing.T, seed int64) *testEnv {
	t.Helper()
	net := netsim.New(seed)
	rng := rand.New(rand.NewSource(seed))
	cons, err := atlas.Build(net, atlas.Config{Anchors: 16, Probes: 8, SamplesPerPair: 3}, rng)
	if err != nil {
		t.Fatal(err)
	}
	env := geoloc.NewEnv(4)
	cal, err := cbgpp.Calibrate(cons, cbgpp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	client := netsim.HostID("stream-test-client")
	if err := net.AddHost(&netsim.Host{
		ID:            client,
		Loc:           geo.Point{Lat: 50.11, Lon: 8.68},
		AccessDelayMs: 1,
	}); err != nil {
		t.Fatal(err)
	}
	return &testEnv{
		net:    net,
		cons:   cons,
		env:    env,
		loc:    cbgpp.New(env, cal, cbgpp.Options{}),
		client: client,
	}
}

func (te *testEnv) auditor(batchSize, queueDepth int) *Auditor {
	return New(Config{
		Cons:        te.cons,
		Client:      te.client,
		Env:         te.env,
		Mask:        te.env.Mask,
		Locator:     te.loc,
		Seed:        4242,
		Concurrency: 4,
		BatchSize:   batchSize,
		QueueDepth:  queueDepth,
	})
}

// TestSynthSourceBoundedProvisioning: a synthetic fleet far larger than
// one batch keeps at most (QueueDepth+2) batches of hosts registered at
// any instant — queued batches, the one being measured, and the one the
// feeder holds while blocked on a full queue. That structural bound is
// what makes the streaming audit O(batch) in live state, not O(fleet).
func TestSynthSourceBoundedProvisioning(t *testing.T) {
	te := newTestEnv(t, 31)
	const n, batchSize, queueDepth = 400, 32, 2
	src := NewSynthSource(te.net, n, 777)
	a := te.auditor(batchSize, queueDepth)

	stats, err := a.Sync(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Audited != n || stats.Skipped != 0 {
		t.Fatalf("first pass over a fresh synthetic fleet: %+v, want %d audited", stats, n)
	}
	bound := (queueDepth + 2) * batchSize
	if got := src.MaxLiveHosts(); got > bound {
		t.Fatalf("peak live hosts %d exceeds the (queue+2)×batch bound %d", got, bound)
	}
	if got := src.MaxLiveHosts(); got < batchSize {
		t.Fatalf("peak live hosts %d never reached one full batch %d — provisioning is broken", got, batchSize)
	}

	// Second pass: nothing changed, so nothing is re-provisioned.
	before := src.MaxLiveHosts()
	stats, err = a.Sync(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Audited != 0 || stats.Skipped != n {
		t.Fatalf("second pass must skip everything: %+v", stats)
	}
	if got := src.MaxLiveHosts(); got != before {
		t.Fatalf("second pass provisioned hosts: peak went %d → %d", before, got)
	}
}

// TestSynthDeterministicAcrossBatchGeometry: the verdict fingerprint of
// a synthetic pass is independent of batch size and queue depth.
func TestSynthDeterministicAcrossBatchGeometry(t *testing.T) {
	const n = 200
	ref := ""
	for i, geom := range []struct{ batch, queue int }{{16, 1}, {64, 3}} {
		te := newTestEnv(t, 31)
		src := NewSynthSource(te.net, n, 777)
		a := te.auditor(geom.batch, geom.queue)
		if _, err := a.Sync(context.Background(), src); err != nil {
			t.Fatal(err)
		}
		fp := a.Store().Fingerprint()
		if i == 0 {
			ref = fp
		} else if fp != ref {
			t.Fatalf("batch=%d queue=%d diverged from batch=16 queue=1:\n--- ref ---\n%s--- got ---\n%s",
				geom.batch, geom.queue, ref, fp)
		}
	}
}

// TestSyncContextCancel: a canceled context aborts the pass with the
// context error rather than hanging the feeder on a full queue, and the
// pass counts only the batches it assessed. With 16 servers the feeder
// has already queued its last batch when the cancel lands, so only the
// drained batch is left unassessed — that pass must fail too.
func TestSyncContextCancel(t *testing.T) {
	for _, n := range []int{400, 16} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			te := newTestEnv(t, 31)
			src := NewSynthSource(te.net, n, 777)
			a := te.auditor(8, 1)
			ctx, cancel := context.WithCancel(context.Background())
			done := false
			a.cfg.OnBatchDone = func(BatchStats) {
				if !done {
					done = true
					cancel()
				}
			}
			canceled, err := a.Sync(ctx, src)
			if err == nil {
				t.Fatalf("Sync with canceled context returned nil error: %+v", canceled)
			}

			// Everything the canceled pass did not finish stayed dirty: a
			// fresh pass picks up exactly the remainder, and a third pass
			// is quiescent.
			a.cfg.OnBatchDone = nil
			resume, err := a.Sync(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			if resume.Audited == 0 {
				t.Fatal("resume pass audited nothing — canceled rows were wrongly marked clean")
			}
			if canceled.Audited+resume.Audited != n {
				t.Fatalf("canceled pass counted %d audited, resume audited %d: want %d in total",
					canceled.Audited, resume.Audited, n)
			}
			final, err := a.Sync(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			if final.Audited != 0 || final.Skipped != n {
				t.Fatalf("post-resume pass must be quiescent over all %d servers: %+v", n, final)
			}
		})
	}
}

// rotatingSource overrides the advertised claim of chosen servers — the
// claim rotation a churning fleet shows between passes.
type rotatingSource struct {
	*SynthSource
	claims map[int]string
}

func (r *rotatingSource) Spec(i int) ServerSpec {
	spec := r.SynthSource.Spec(i)
	if c, ok := r.claims[i]; ok {
		spec.Claimed = c
	}
	return spec
}

// TestSyncReusesUnchangedMesh: an armed auditor cross-validates the
// anchor mesh only when the as-reported mesh changed since the last
// pass. A delta pass after a claim rotation reuses the report; a plan
// whose ReportBiasMs differs and a recalibrated constellation both
// recompute; disarming clears the cache, so re-arming recomputes. After
// every step the store matches a fresh auditor's full pass.
func TestSyncReusesUnchangedMesh(t *testing.T) {
	te := newTestEnv(t, 31)
	src := &rotatingSource{SynthSource: NewSynthSource(te.net, 48, 777), claims: map[int]string{}}
	plan := &measure.AdversaryPlan{
		Seed: 42, Attack: measure.AttackInflate, ProxyFraction: 0.3,
		Aggressiveness: 1, ByzantineFraction: 0.4,
	}
	retuned := *plan
	retuned.MeshBiasMs = 65
	biased := false
	for _, lm := range te.cons.Anchors() {
		if plan.ReportBiasMs(lm.Host.ID) != retuned.ReportBiasMs(lm.Host.ID) {
			biased = true
		}
	}
	if !biased {
		t.Fatal("test plan has no bias-lying anchor; re-tuning MeshBiasMs would not change the mesh")
	}

	tel := telemetry.New()
	a := te.auditor(16, 2)
	a.cfg.Adversary = plan
	a.cfg.Telemetry = tel
	computed := func() int {
		for _, st := range tel.Stages() {
			if st.Name == "audit.crossvalidate" {
				return st.Spans
			}
		}
		return 0
	}
	step := func(name string, wantComputed int, wantReused int64) PassStats {
		t.Helper()
		stats, err := a.Sync(context.Background(), src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := computed(); got != wantComputed {
			t.Errorf("%s: cross-validation computed %d times in total, want %d", name, got, wantComputed)
		}
		if got := tel.Count("stream.crossvalidate.reused"); got != wantReused {
			t.Errorf("%s: stream.crossvalidate.reused = %d, want %d", name, got, wantReused)
		}
		fresh := te.auditor(16, 2)
		fresh.cfg.Adversary = a.cfg.Adversary
		if _, err := fresh.Sync(context.Background(), src); err != nil {
			t.Fatalf("%s: fresh pass: %v", name, err)
		}
		if got, want := a.Store().Fingerprint(), fresh.Store().Fingerprint(); got != want {
			t.Fatalf("%s: incremental store diverged from a fresh pass:\n--- fresh ---\n%s--- incremental ---\n%s", name, want, got)
		}
		return stats
	}

	step("first pass", 1, 0)
	src.claims[3], src.claims[17] = "ZZ", "QQ"
	if stats := step("claim rotation", 1, 1); stats.Audited != 2 {
		t.Errorf("claim rotation re-audited %d servers, want 2", stats.Audited)
	}
	a.cfg.Adversary = &retuned
	step("re-tuned bias", 2, 1)
	te.cons.RefreshCalibration(3, rand.New(rand.NewSource(8)))
	step("recalibration", 3, 1)
	step("quiet pass", 3, 2)
	a.cfg.Adversary = nil
	step("disarmed", 3, 2)
	if a.meshEdges != nil || a.lmReport != nil {
		t.Fatal("disarmed pass left the cross-validation cache populated")
	}
	a.cfg.Adversary = &retuned
	step("re-armed", 4, 2)
}
