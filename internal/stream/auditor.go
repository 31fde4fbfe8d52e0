package stream

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"activegeo/internal/atlas"
	"activegeo/internal/detect"
	"activegeo/internal/geoloc"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
	"activegeo/internal/telemetry"
	"activegeo/internal/worldmap"
)

// Config parameterizes a streaming Auditor. Cons, Client, Env, Mask and
// Locator must match the batch audit's for fingerprint parity; Seed must
// be the same measurement base seed (the lab's audit stream seed), since
// each server's randomness is measure.StreamSeed(Seed, id) on both
// paths.
type Config struct {
	Cons    *atlas.Constellation
	Client  netsim.HostID
	Env     *geoloc.Env
	Mask    *worldmap.Mask
	Locator geoloc.Algorithm

	// Seed is the base seed of the per-server measurement streams.
	Seed int64
	// PolicyFn returns the resilience policy for a batch (consulted at
	// batch formation, so re-arming faults mid-run takes effect on the
	// next batch). nil means the zero policy — the historical
	// fault-free path.
	PolicyFn func() measure.Policy

	// Concurrency bounds the measurement and assessment pools inside
	// one batch (0 = GOMAXPROCS). Results are identical at any width.
	Concurrency int
	// BatchSize is the number of servers measured per batch (default
	// 64). Peak transient memory is O(QueueDepth × BatchSize).
	BatchSize int
	// QueueDepth bounds the batches buffered between the feeder and the
	// measuring worker (default 2). The feeder blocks when the queue is
	// full — backpressure, not accumulation.
	QueueDepth int

	// Adversary, when armed, runs the batch audit's detection layer:
	// the calibration mesh is cross-validated before each pass, flagged
	// landmarks' reports are dropped from every server's localization
	// inputs, and each verdict carries a manipulation inspection judged
	// against the whole store's population after the pass. nil (or a
	// disabled plan) keeps the pipeline byte-identical to the honest
	// engine.
	Adversary *measure.AdversaryPlan

	// Telemetry receives queue-depth and batch-latency distributions
	// plus audited/skipped counters (nil discards).
	Telemetry *telemetry.Collector

	// OnBatchDone, if non-nil, is called synchronously from the worker
	// after each batch is fully assessed, with no measurement in
	// flight — the safe point to apply constellation churn mid-pass.
	OnBatchDone func(BatchStats)
}

// BatchStats describes one completed batch.
type BatchStats struct {
	Pass    uint32
	Index   int // batch number within the pass, 0-based
	Servers int
	WallMs  float64
}

// PassStats summarizes one Sync pass.
type PassStats struct {
	Total   int // servers enumerated from the source
	Audited int // servers measured this pass
	Skipped int // servers whose dependency signature was unchanged
	Batches int
}

// Auditor runs streaming audit passes against a columnar Store.
type Auditor struct {
	cfg   Config
	store *Store
	pass  uint32

	// lmReport is the current pass's landmark cross-validation (nil when
	// the adversary layer is disarmed), and meshEdges the as-reported
	// mesh it was computed from. CrossValidate is a pure function of the
	// edges, so Sync recomputes only when the mesh it rebuilds differs
	// from meshEdges — after churn, recalibration or a re-tuned plan.
	meshEdges []detect.MeshEdge
	lmReport  *detect.LandmarkReport
}

// New builds an Auditor over a fresh store.
func New(cfg Config) *Auditor {
	return &Auditor{cfg: cfg, store: NewStore()}
}

// Store exposes the verdict store.
func (a *Auditor) Store() *Store { return a.store }

func (a *Auditor) concurrency() int {
	if a.cfg.Concurrency > 0 {
		return a.cfg.Concurrency
	}
	return runtime.GOMAXPROCS(0)
}

func (a *Auditor) batchSize() int {
	if a.cfg.BatchSize > 0 {
		return a.cfg.BatchSize
	}
	return 64
}

func (a *Auditor) queueDepth() int {
	if a.cfg.QueueDepth > 0 {
		return a.cfg.QueueDepth
	}
	return 2
}

func (a *Auditor) policy() measure.Policy {
	if a.cfg.PolicyFn == nil {
		return measure.Policy{}
	}
	return a.cfg.PolicyFn()
}

// signature folds everything a server's verdict depends on — the
// constellation epoch (landmark set + calibration generation), the fault
// ledger, and the server's own claim metadata — into one dependency
// stamp. A stored verdict is current iff its stamp matches.
func (a *Auditor) signature(spec ServerSpec) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mixStr := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
		mix(uint64(len(s)))
	}
	mix(a.cfg.Cons.Epoch())
	mix(a.cfg.Cons.Net().Faults().Signature())
	// Arming, disarming or re-tuning the adversary plan changes what a
	// verdict means, so it dirties every row (nil and the zero plan
	// share the stable "disabled" stamp).
	mix(a.cfg.Adversary.Signature())
	mixStr(spec.Provider)
	mixStr(spec.Claimed)
	mixStr(spec.GroupKey)
	return h
}

// sameMesh reports whether two as-reported meshes are element-wise
// identical: the same directed edges in the same order, with bit-equal
// distances and RTTs — exactly the inputs CrossValidate reads.
func sameMesh(a, b []detect.MeshEdge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].From != b[i].From || a[i].To != b[i].To ||
			math.Float64bits(a[i].ClaimedDistKm) != math.Float64bits(b[i].ClaimedDistKm) ||
			math.Float64bits(a[i].MinRTTms) != math.Float64bits(b[i].MinRTTms) {
			return false
		}
	}
	return true
}

// batchItem is one dirty server queued for measurement.
type batchItem struct {
	row  int
	spec ServerSpec
	sig  uint64
}

// Sync runs one streaming pass over the source: servers whose dependency
// signature changed since their last verdict are re-measured in bounded
// batches; the rest are skipped. After the pass the group metadata
// refinement is re-resolved over the whole store, so partial deltas
// compose into exactly the verdicts a full batch audit would produce.
//
// Determinism: each server draws from its own (Seed, ID) stream, batch
// composition only affects scheduling, and per-batch results are written
// into per-row slots — so verdicts are a pure function of (store state,
// source, constellation, faults), at any Concurrency/BatchSize/QueueDepth.
func (a *Auditor) Sync(ctx context.Context, src Source) (PassStats, error) {
	a.pass++
	tel := a.cfg.Telemetry
	prov, _ := src.(Provisioner)
	stats := PassStats{Total: src.Len()}

	// Stage 0 (adversary plan armed only): cross-validate the anchors
	// against the as-reported calibration mesh, exactly as the batch
	// audit does. The flagged set filters every batch's localization
	// inputs below and is stamped into the store for the fingerprint.
	// A mesh identical to the previous pass's reuses its report.
	if plan := a.cfg.Adversary; plan.Enabled() {
		edges := detect.MeshEdges(a.cfg.Cons, plan.ReportedPosition, plan.ReportBiasMs)
		if a.lmReport != nil && sameMesh(edges, a.meshEdges) {
			tel.Add("stream.crossvalidate.reused", 1)
		} else {
			span := tel.StartStage("audit.crossvalidate")
			a.meshEdges = edges
			a.lmReport = detect.CrossValidate(edges, detect.DefaultCrossValidateConfig())
			span.End()
		}
		a.store.setAdversary(true, a.lmReport.Flagged)
	} else {
		a.meshEdges, a.lmReport = nil, nil
		a.store.setAdversary(false, nil)
	}

	batches := make(chan []batchItem, a.queueDepth())
	var feedErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(batches)
		batch := make([]batchItem, 0, a.batchSize())
		flush := func() bool {
			if len(batch) == 0 {
				return true
			}
			if prov != nil {
				if err := prov.Provision(specsOf(batch)); err != nil {
					feedErr = fmt.Errorf("stream: provisioning batch: %w", err)
					return false
				}
			}
			tel.Observe("stream.queue.depth", float64(len(batches)))
			select {
			case batches <- batch:
			case <-ctx.Done():
				// The batch was provisioned but never handed off: release
				// it here or its hosts leak into the next pass.
				if prov != nil {
					prov.Release(specsOf(batch))
				}
				feedErr = ctx.Err()
				return false
			}
			batch = make([]batchItem, 0, a.batchSize())
			return true
		}
		for i := 0; i < src.Len(); i++ {
			spec := src.Spec(i)
			row := a.store.ensure(spec)
			// The signature is captured at batch formation: churn
			// landing after this point re-dirties the server on the
			// next pass rather than silently racing this one.
			sig := a.signature(spec)
			if stored, assessed := a.store.sigOf(row); assessed && stored == sig {
				stats.Skipped++
				continue
			}
			batch = append(batch, batchItem{row: row, spec: spec, sig: sig})
			if len(batch) >= a.batchSize() {
				if !flush() {
					return
				}
			}
		}
		flush()
	}()

	// Only assessed batches count. After a cancel the rest drain
	// without assessment, so every unfinished row keeps its old
	// signature and stays dirty for the next pass.
	unassessed := false
	for batch := range batches {
		start := time.Now()
		assessed := ctx.Err() == nil && a.runBatch(ctx, batch)
		if prov != nil {
			prov.Release(specsOf(batch))
		}
		if !assessed {
			unassessed = true
			continue
		}
		wallMs := float64(time.Since(start)) / float64(time.Millisecond)
		tel.Observe("stream.batch.ms", wallMs)
		tel.Add("stream.audited", int64(len(batch)))
		stats.Audited += len(batch)
		if a.cfg.OnBatchDone != nil {
			a.cfg.OnBatchDone(BatchStats{
				Pass: a.pass, Index: stats.Batches, Servers: len(batch), WallMs: wallMs,
			})
		}
		stats.Batches++
	}
	wg.Wait()
	if feedErr != nil {
		return stats, feedErr
	}
	if unassessed {
		return stats, ctx.Err()
	}

	a.store.resolveGroups()
	// Like the group refinement, the manipulation judgment is a pure
	// function of the whole store's per-server fits: re-judging after
	// every pass makes partial deltas compose into exactly the verdicts
	// a full batch audit would produce.
	a.store.resolveAdversary(detect.DefaultInspectConfig())
	tel.Add("stream.skipped", int64(stats.Skipped))
	tel.Add("stream.passes", 1)
	return stats, nil
}

// specsOf lists a batch's specs for the Provisioner.
func specsOf(batch []batchItem) []ServerSpec {
	specs := make([]ServerSpec, len(batch))
	for i, it := range batch {
		specs[i] = it.spec
	}
	return specs
}

// runBatch measures and assesses one batch: the only point where RTT
// vectors and prediction regions exist, and they die with the batch. It
// reports false, leaving every row dirty, when ctx was canceled during
// the measurement.
func (a *Auditor) runBatch(ctx context.Context, batch []batchItem) bool {
	proxies := make([]netsim.HostID, len(batch))
	for i, it := range batch {
		proxies[i] = it.spec.ID
	}
	mb := &measure.Batch{
		Cons:        a.cfg.Cons,
		Client:      a.cfg.Client,
		Eta:         measure.DefaultEta,
		Concurrency: a.concurrency(),
		Seed:        a.cfg.Seed,
		Policy:      a.policy(),
		Adversary:   a.cfg.Adversary,
	}
	measured := mb.Run(ctx, proxies)
	if ctx.Err() != nil {
		return false
	}
	ParallelFor(len(batch), a.concurrency(), func(i int) {
		it := batch[i]
		sa := AuditServer(a.cfg.Env, a.cfg.Mask, a.cfg.Locator, a.lmReport, measured[i], it.spec)
		var deg *measure.Degradation
		if r := measured[i].Result; r != nil {
			deg = r.Deg
		}
		a.store.setResult(it, a.pass, &sa, deg)
	})
	return true
}
