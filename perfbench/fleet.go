package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"

	"activegeo/internal/assess"
	"activegeo/internal/experiments"
	"activegeo/internal/grid"
	"activegeo/internal/telemetry"
)

// defaultSeed is the seed the pinned digests below were recorded at
// (experiments.QuickConfig's seed). Other seeds run only the
// cross-checks.
const defaultSeed = 2018

// fleetPin is the quick-lab audit at the default seed: the Figure 17
// tally and the SHA-256 of experiments.Fingerprint.
var fleetPin = struct {
	credible, uncertain, false_ int
	sha                         string
}{166, 25, 161, "6020052eab5a3ddd629d37922f33437037d3f45be007aec1ba825ab81740bf08"}

// fleetAudit is the paper's §6 pipeline: Lab.Audit on a fresh quick lab.
// Building the lab is set-up, so every round starts from cold caches the
// way a user's audit does.
type fleetAudit struct {
	seed    int64
	workers int
	lab     *experiments.Lab

	firstSHA string // the first round's fingerprint digest
	stages   []telemetry.Stage
	field    grid.FieldStats
	mask     grid.MaskStats
	tally    assess.Tally
	serial   float64 // traced run: one-worker audit wall, s
	parallel float64 // traced run: workers-wide audit wall, s
}

func newFleetAudit(seed int64, workers int) bench {
	return &fleetAudit{seed: seed, workers: workers}
}

func (f *fleetAudit) setupEachRound() bool { return true }

func (f *fleetAudit) setup() error {
	lab, err := quickLab(f.seed, f.workers)
	if err != nil {
		return err
	}
	f.lab = lab
	return nil
}

func (f *fleetAudit) round(rc roundCtx) (roundResult, error) {
	tr := rc.tr
	lab := f.lab
	tel := telemetry.New()
	lab.Telemetry = tel
	var mu sync.Mutex
	var verdictMs []float64
	start := time.Now()
	// A server's verdict exists once the locate stage reports it; the
	// time since the audit began is that server's time to verdict.
	tel.OnProgress(func(p telemetry.Progress) {
		if p.Stage == "audit.locate" {
			ms := float64(time.Since(start)) / 1e6
			mu.Lock()
			verdictMs = append(verdictMs, ms)
			mu.Unlock()
		}
	})
	auditSpan := tr.begin("experiments.audit", "", rc.root)
	run, err := lab.Audit()
	end := time.Now()
	tr.end(auditSpan)
	if err != nil {
		return roundResult{}, err
	}
	wall := end.Sub(start).Seconds()
	f.stages = tel.Stages()
	// The telemetry stages run back to back inside Audit; laying them
	// out from the audit's start lets them join the trace as children.
	at := start
	for _, st := range f.stages {
		tr.record("experiments."+stageName(st.Name), "", auditSpan, at, at.Add(st.Wall))
		at = at.Add(st.Wall)
	}
	f.field = lab.Env.Field.Stats()
	if lab.Env.Masks != nil {
		f.mask = lab.Env.Masks.Stats()
	}

	rr := roundResult{
		attempted: len(run.Results),
		failed:    len(run.Errors),
		opsPerSec: float64(len(run.Results)) / wall,
		latMs:     verdictMs,
	}
	rr.checkErr = f.checkRun(run)
	return rr, nil
}

// stageName maps a telemetry stage ("audit.measure") to its span name
// ("audit_measure").
func stageName(s string) string { return strings.ReplaceAll(s, ".", "_") }

// checkRun verifies one audit: every server has a verdict, the tally
// and digest match the pins at the default seed, and every round of a
// run reproduces the first round's fingerprint at any seed.
func (f *fleetAudit) checkRun(run *experiments.AuditRun) error {
	servers := len(f.lab.Fleet.Servers())
	fp := experiments.Fingerprint(run)
	sum := sha256.Sum256([]byte(fp))
	sha := hex.EncodeToString(sum[:])
	f.tally = assess.Tabulate(run.Results)
	return checkFleet(f.seed, servers, len(run.Results), f.tally, sha, &f.firstSHA)
}

// checkFleet is the fleet-audit output check, separate from the lab so
// tests can feed it corrupted outputs.
func checkFleet(seed int64, servers, results int, t assess.Tally, sha string, first *string) error {
	if results != servers {
		return fmt.Errorf("fleet-audit: %d verdicts for %d servers", results, servers)
	}
	if t.Credible+t.Uncertain+t.False != servers {
		return fmt.Errorf("fleet-audit: tally %d/%d/%d does not cover %d servers", t.Credible, t.Uncertain, t.False, servers)
	}
	if seed == defaultSeed {
		if t.Credible != fleetPin.credible || t.Uncertain != fleetPin.uncertain || t.False != fleetPin.false_ {
			return fmt.Errorf("fleet-audit: tally %d/%d/%d, want pinned %d/%d/%d",
				t.Credible, t.Uncertain, t.False, fleetPin.credible, fleetPin.uncertain, fleetPin.false_)
		}
		if sha != fleetPin.sha {
			return fmt.Errorf("fleet-audit: fingerprint sha256 %s, want pinned %s", sha, fleetPin.sha)
		}
	}
	if *first == "" {
		*first = sha
	} else if sha != *first {
		return fmt.Errorf("fleet-audit: fingerprint sha256 %s differs from the first round's %s", sha, *first)
	}
	return nil
}

func (f *fleetAudit) check() error { return nil }

// layers adds the audit's stage walls, the cache ratios and, from two
// extra audits on fresh labs, the parallel speed-up with both walls.
func (f *fleetAudit) layers(spans []span, m layerSet) error {
	for _, st := range f.stages {
		m["experiments."+stageName(st.Name)+"_s"] = st.Wall.Seconds()
	}
	m["grid.field_hit_ratio"] = ratio(f.field.Hits, f.field.Hits+f.field.Misses)
	m["grid.mask_hit_ratio"] = ratio(f.mask.Hits, f.mask.Hits+f.mask.Misses)
	m["grid.mask_refined_cells"] = float64(f.mask.RefinedCells)

	var walls [2]float64
	var shas [2]string
	for i, workers := range []int{1, f.workers} {
		lab, err := quickLab(f.seed, workers)
		if err != nil {
			return err
		}
		t0 := time.Now()
		run, err := lab.Audit()
		if err != nil {
			return err
		}
		walls[i] = time.Since(t0).Seconds()
		sum := sha256.Sum256([]byte(experiments.Fingerprint(run)))
		shas[i] = hex.EncodeToString(sum[:])
	}
	if shas[0] != shas[1] {
		return fmt.Errorf("fleet-audit: 1-worker and %d-worker audits differ (%s vs %s)", f.workers, shas[0], shas[1])
	}
	f.serial, f.parallel = walls[0], walls[1]
	m["experiments.serial_wall_s"] = walls[0]
	m["experiments.parallel_wall_s"] = walls[1]
	m["experiments.parallel_speedup"] = walls[0] / walls[1]
	return nil
}

func (f *fleetAudit) notes() []string {
	out := []string{fmt.Sprintf("fleet-audit: quick lab seed %d, %d workers; tally %d/%d/%d",
		f.seed, f.workers, f.tally.Credible, f.tally.Uncertain, f.tally.False)}
	for _, st := range f.stages {
		out = append(out, fmt.Sprintf("  stage %-20s %8.3f s wall %8.3f s cpu", st.Name, st.Wall.Seconds(), st.CPU.Seconds()))
	}
	if f.serial > 0 {
		out = append(out, fmt.Sprintf("  parallel speed-up %.3f = 1-worker %.3f s ÷ %d-worker %.3f s",
			f.serial/f.parallel, f.serial, f.workers, f.parallel))
	}
	return out
}

func ratio[T ~int | ~int64 | ~uint64](num, den T) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
