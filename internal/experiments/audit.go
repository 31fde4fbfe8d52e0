package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"activegeo/internal/assess"
	"activegeo/internal/datacenter"
	"activegeo/internal/detect"
	"activegeo/internal/geo"
	"activegeo/internal/grid"
	"activegeo/internal/iclab"
	"activegeo/internal/ipdb"
	"activegeo/internal/mathx"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
	"activegeo/internal/proxy"
	"activegeo/internal/stream"
	"activegeo/internal/worldmap"
)

// Fig13Result is the direct-vs-indirect RTT calibration.
type Fig13Result struct {
	Proxies int
	Eta     float64 // paper: 0.49
	R2      float64 // paper: > 0.99
}

// Fig13Eta estimates η from the pingable subset of the fleet: direct
// pings from the client to each proxy, against self-pings through it.
// Each proxy draws from its own seeded stream, so the calibration is
// identical at any concurrency and in any fleet order.
func (l *Lab) Fig13Eta() (*Fig13Result, error) {
	pingable := l.Fleet.Pingable()
	type etaPair struct {
		direct, indirect float64
		ok               bool
	}
	pairs := make([]etaPair, len(pingable))
	span := l.Telemetry.StartStage("fig13.measure")
	stream.ParallelFor(len(pingable), l.Concurrency(), func(i int) {
		s := pingable[i]
		rng := l.rngFor(13, s.Host.ID)
		// Direct and indirect measurements both take min-of-8 samples:
		// jitter must be suppressed on both axes, or the regression's R²
		// reflects queueing noise rather than the leg relationship.
		d, err := l.Net.MinOfSamples(l.Client, s.Host.ID, 8, rng)
		if err != nil {
			return
		}
		pt := &measure.ProxiedTool{Net: l.Net, Client: l.Client, Proxy: s.Host.ID, Attempts: 8}
		ind, err := pt.SelfPing(rng)
		if err != nil {
			return
		}
		pairs[i] = etaPair{direct: d, indirect: ind, ok: true}
	})
	span.End()
	var direct, indirect []float64
	for _, p := range pairs {
		if p.ok {
			direct = append(direct, p.direct)
			indirect = append(indirect, p.indirect)
		}
	}
	if len(direct) < 3 {
		return nil, fmt.Errorf("experiments: only %d pingable proxies", len(direct))
	}
	eta, r2, err := measure.EstimateEta(direct, indirect)
	if err != nil {
		return nil, err
	}
	return &Fig13Result{Proxies: len(direct), Eta: eta, R2: r2}, nil
}

// Render formats the result.
func (r *Fig13Result) Render() string {
	return fmt.Sprintf("Fig 13 | η over %d pingable proxies: slope %.3f (paper 0.49), R²=%.4f (paper >0.99)", r.Proxies, r.Eta, r.R2)
}

// Fig14Result is the provider-market claim ranking.
type Fig14Result struct {
	Entries []proxy.MarketEntry
}

// Fig14Market generates the 157-provider market overview.
func (l *Lab) Fig14Market() *Fig14Result {
	return &Fig14Result{Entries: proxy.Market(l.rng(14))}
}

// Render formats the studied providers' ranks.
func (r *Fig14Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 14 | claim breadth over %d providers (studied providers marked):\n", len(r.Entries))
	for rank, e := range r.Entries {
		if e.Studied {
			fmt.Fprintf(&b, "  rank %3d: provider %s claims %d countries\n", rank+1, e.Name, e.Countries)
		}
	}
	return b.String()
}

// ServerError records why one server produced no prediction region: its
// measurement failed outright (or yielded too few usable samples), or
// CBG++ localization failed on the measurements it did produce.
type ServerError struct {
	Stage string // stream.StageMeasure or stream.StageLocate
	Err   error
}

// AuditRun is the memoized output of the full §6 pipeline.
type AuditRun struct {
	Results []*assess.Result
	// byServer maps server IDs to results for cross-referencing.
	byServer map[string]*assess.Result
	// Stats are the audit-wide aggregates: failures by stage, the
	// disambiguation flips, and the fault and adversary totals.
	stream.Stats

	// Errors maps server IDs to the reason the pipeline produced no
	// region for them. Such servers are assessed against an empty
	// region (verdict uncertain), but the Figure 17 tallies can now
	// distinguish "measured and uncertain" from "never measured".
	Errors map[string]ServerError

	// Coverage maps server IDs to their measurement's fault ledger. Only
	// populated when fault injection is armed: on the fault-free path
	// the map is empty and the audit output is unchanged.
	Coverage map[string]measure.Degradation

	// Adversary-detection outputs. Only populated when the lab's
	// adversary plan is armed: on the honest path every field below is
	// zero and the audit output is byte-identical to the pre-adversary
	// engine.
	AdversaryArmed bool
	// Landmarks is the inter-anchor cross-validation report; its
	// Flagged IDs (copied here, sorted) were excluded from every
	// server's localization inputs — ExcludedMeasurements counts the
	// samples dropped that way.
	Landmarks        *detect.LandmarkReport
	FlaggedLandmarks []netsim.HostID
	// Inspections maps server IDs to their full manipulation
	// inspection (the verdict fields on assess.Result are a summary of
	// these).
	Inspections map[string]detect.Inspection
}

// Audit runs (once) the full pipeline: for every server, self-ping,
// two-phase measurement through the proxy with the CLI tool, η
// correction, CBG++ localization, claim assessment, then data-center and
// metadata disambiguation.
//
// The pipeline is deterministic AND parallel: the measurement phase runs
// through measure.Batch and the localization+assessment phase on a
// bounded worker pool, with every server drawing from its own stream
// seeded by (lab seed, server ID) and results merged in fleet order. A
// serial run (Concurrency: 1) and an N-worker run produce byte-identical
// verdicts; concurrency changes only the wall-clock time.
func (l *Lab) Audit() (*AuditRun, error) {
	if l.audit != nil {
		return l.audit, nil
	}
	tel := l.Telemetry
	servers := l.Fleet.Servers()
	// Cache counters are cumulative over the Env's lifetime; snapshot
	// them here so the deltas reported below cover this audit only.
	fieldBefore := l.Env.Field.Stats()
	var maskBefore grid.MaskStats
	if l.Env.Masks != nil {
		maskBefore = l.Env.Masks.Stats()
	}
	run := &AuditRun{
		byServer: make(map[string]*assess.Result, len(servers)),
		Errors:   map[string]ServerError{},
		Coverage: map[string]measure.Degradation{},
	}

	// Stage 0 (adversary plan armed only): cross-validate every anchor
	// against the as-reported calibration mesh. The flagged landmarks
	// are excluded from every server's localization inputs below, and
	// the robust mesh fit doubles as the honest-noise baseline the
	// per-server manipulation detectors compare against.
	plan := l.Adversary
	var lmReport *detect.LandmarkReport
	if plan.Enabled() {
		span := tel.StartStage("audit.crossvalidate")
		edges := detect.MeshEdges(l.Cons, plan.ReportedPosition, plan.ReportBiasMs)
		lmReport = detect.CrossValidate(edges, detect.DefaultCrossValidateConfig())
		run.AdversaryArmed = true
		run.Landmarks = lmReport
		run.FlaggedLandmarks = append([]netsim.HostID(nil), lmReport.Flagged...)
		run.Inspections = make(map[string]detect.Inspection, len(servers))
		span.End()
	}

	// Stage 1: two-phase measurement through every proxy, batched.
	span := tel.StartStage("audit.measure")
	proxies := make([]netsim.HostID, len(servers))
	for i, s := range servers {
		proxies[i] = s.Host.ID
	}
	batch := &measure.Batch{
		Cons:        l.Cons,
		Client:      l.Client,
		Eta:         measure.DefaultEta,
		Concurrency: l.Concurrency(),
		Seed:        l.streamSeed(17),
		Policy:      l.policy(),
		Adversary:   plan,
		OnProgress: func(done, total int) {
			tel.Progress("audit.measure", done, total)
		},
	}
	measured := batch.Run(context.Background(), proxies)
	span.End()

	// Stage 2: CBG++ localization + claim assessment, worker pool with
	// per-index slots merged in fleet order.
	span = tel.StartStage("audit.locate")
	audits := make([]stream.ServerAudit, len(servers))
	var located int64
	stream.ParallelFor(len(servers), l.Concurrency(), func(i int) {
		s := servers[i]
		spec := stream.ServerSpec{ID: s.Host.ID, Provider: s.Provider, Claimed: s.ClaimedCountry}
		audits[i] = stream.AuditServer(l.Env, l.Env.Mask, l.CBGpp, lmReport, measured[i], spec)
		tel.Progress("audit.locate", int(atomic.AddInt64(&located, 1)), len(servers))
	})
	span.End()

	// The per-server fits are judged as a population: the honest
	// majority of servers calibrates the spread/shift gates, so a noisy
	// network doesn't read as an attack and a quiet one doesn't hide it.
	if run.AdversaryArmed {
		byID := make(map[string]detect.Inspection, len(servers))
		for _, sa := range audits {
			byID[sa.Result.ServerID] = sa.Inspection
		}
		judged := detect.JudgeServers(byID, detect.DefaultInspectConfig())
		for i := range audits {
			a := audits[i].Result
			insp := judged[a.ServerID]
			audits[i].Inspection = insp
			a.ManipulationSuspected = insp.Suspected
			a.ManipulationScore = insp.Score
			a.ManipulationReasons = insp.Reasons
		}
	}

	run.Servers = len(servers)
	for i, sa := range audits {
		a := sa.Result
		if sa.ErrStage != "" {
			run.Errors[a.ServerID] = ServerError{Stage: sa.ErrStage, Err: sa.Err}
			if sa.ErrStage == stream.StageMeasure {
				run.MeasureFailures++
			} else {
				run.LocateFailures++
			}
		}
		if res := measured[i].Result; res != nil && res.Deg != nil {
			run.Coverage[a.ServerID] = *res.Deg
			run.AddCoverage(res.Deg)
		}
		if a.VerdictRaw == assess.Uncertain && a.Verdict != assess.Uncertain {
			run.ReclassifiedByDC++
		}
		if run.AdversaryArmed {
			run.ExcludedMeasurements += sa.Excluded
			run.Inspections[a.ServerID] = sa.Inspection
			if a.ManipulationSuspected {
				run.SuspectedServers++
			}
		}
		run.Results = append(run.Results, a)
		run.byServer[a.ServerID] = a
	}

	// Stage 3 — Figure 16: metadata disambiguation over provider/AS//24
	// groups. Groups are disjoint, so traversal order cannot change the
	// outcome; keys are still sorted for a stable telemetry trace.
	span = tel.StartStage("audit.disambiguate")
	groups := l.Fleet.DataCenterGroups()
	keys := make([]string, 0, len(groups))
	for key := range groups {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		group := groups[key]
		if len(group) < 2 {
			continue
		}
		members := make([]*assess.Result, 0, len(group))
		for _, s := range group {
			if r, ok := run.byServer[string(s.Host.ID)]; ok {
				members = append(members, r)
			}
		}
		before := countUncertain(members)
		assess.DisambiguateGroup(members)
		run.ReclassifiedByGroup += before - countUncertain(members)
	}
	span.End()

	tel.Add("audit.servers", int64(len(servers)))
	tel.Add("audit.failures.measure", int64(run.MeasureFailures))
	tel.Add("audit.failures.locate", int64(run.LocateFailures))
	tel.Add("audit.reclassified.dc", int64(run.ReclassifiedByDC))
	tel.Add("audit.reclassified.group", int64(run.ReclassifiedByGroup))
	if run.AdversaryArmed {
		tel.Add("audit.adversary.flagged", int64(len(run.FlaggedLandmarks)))
		tel.Add("audit.adversary.excluded", int64(run.ExcludedMeasurements))
		tel.Add("audit.adversary.suspected", int64(run.SuspectedServers))
	}
	if len(run.Coverage) > 0 {
		tel.Add("audit.faults.retries", int64(run.Retries))
		tel.Add("audit.faults.probefailures", int64(run.ProbeFailures))
		tel.Add("audit.faults.lostlandmarks", int64(run.LostLandmarks))
		tel.Add("audit.faults.disconnects", int64(run.Disconnects))
		tel.Add("audit.faults.degraded", int64(run.DegradedServers))
	}
	fieldAfter := l.Env.Field.Stats()
	tel.Add("geo.field.hits", int64(fieldAfter.Hits-fieldBefore.Hits))
	tel.Add("geo.field.misses", int64(fieldAfter.Misses-fieldBefore.Misses))
	tel.Add("geo.field.evictions", int64(fieldAfter.Evictions-fieldBefore.Evictions))
	if l.Env.Masks != nil {
		maskAfter := l.Env.Masks.Stats()
		tel.Add("geo.mask.hits", int64(maskAfter.Hits-maskBefore.Hits))
		tel.Add("geo.mask.misses", int64(maskAfter.Misses-maskBefore.Misses))
		tel.Add("geo.mask.evictions", int64(maskAfter.Evictions-maskBefore.Evictions))
		tel.Add("geo.mask.refined", int64(maskAfter.RefinedCells-maskBefore.RefinedCells))
	}
	l.audit = run
	return run, nil
}

func countUncertain(rs []*assess.Result) int {
	n := 0
	for _, r := range rs {
		if r.Verdict == assess.Uncertain {
			n++
		}
	}
	return n
}

// Fig17Result is the overall assessment.
type Fig17Result struct {
	Tally               assess.Tally
	ReclassifiedByDC    int
	ReclassifiedByGroup int
	// MeasureFailures/LocateFailures split the uncertain verdicts that
	// stem from pipeline failures (no region at all) from genuinely
	// measured-but-ambiguous servers.
	MeasureFailures int
	LocateFailures  int
	TopClaimed      []assess.CountryBar // countries by claimed count
	TopProbable     []assess.CountryBar // countries by probable (measured) count
}

// Fig17Assessment tabulates the audit.
func (l *Lab) Fig17Assessment() (*Fig17Result, error) {
	run, err := l.Audit()
	if err != nil {
		return nil, err
	}
	return &Fig17Result{
		Tally:               assess.Tabulate(run.Results),
		ReclassifiedByDC:    run.ReclassifiedByDC,
		ReclassifiedByGroup: run.ReclassifiedByGroup,
		MeasureFailures:     run.MeasureFailures,
		LocateFailures:      run.LocateFailures,
		TopClaimed: assess.CountryBreakdown(run.Results, func(r *assess.Result) string {
			return r.ClaimedCountry
		}),
		TopProbable: assess.CountryBreakdown(run.Results, func(r *assess.Result) string {
			return r.ProbableCountry
		}),
	}, nil
}

// Render formats the result.
func (r *Fig17Result) Render() string {
	var b strings.Builder
	t := r.Tally
	fmt.Fprintf(&b, "Fig 17 | overall assessment of %d servers (paper: 989 credible / 642 uncertain / 638 false of 2269):\n", t.Total())
	fmt.Fprintf(&b, "  credible %d (%.0f%%)  uncertain %d (%.0f%%)  false %d (%.0f%%)\n",
		t.Credible, pct(t.Credible, t.Total()), t.Uncertain, pct(t.Uncertain, t.Total()), t.False, pct(t.False, t.Total()))
	fmt.Fprintf(&b, "  false & off-continent: %d (paper: 401 of 638)  uncertain but continent-credible: %d (paper: 462 of 642)\n",
		t.FalseOffContinent, t.UncertainSameCont)
	fmt.Fprintf(&b, "  reclassified: %d by data centers, %d by AS//24 groups (paper: 353 total)\n",
		r.ReclassifiedByDC, r.ReclassifiedByGroup)
	fmt.Fprintf(&b, "  never measured (pipeline failures): %d measurement, %d localization — the rest of the uncertain verdicts were measured but ambiguous\n",
		r.MeasureFailures, r.LocateFailures)
	fmt.Fprintf(&b, "  top claimed countries:  %s\n", renderBars(r.TopClaimed, 10))
	fmt.Fprintf(&b, "  top probable countries: %s\n", renderBars(r.TopProbable, 10))
	return b.String()
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

func renderBars(bars []assess.CountryBar, n int) string {
	if n > len(bars) {
		n = len(bars)
	}
	parts := make([]string, 0, n)
	for _, bar := range bars[:n] {
		parts = append(parts, fmt.Sprintf("%s:%d", bar.Country, bar.Count))
	}
	return strings.Join(parts, " ")
}

// Fig18Result is the provider×country honesty matrix.
type Fig18Result struct {
	Cells []assess.HonestyCell
}

// Fig18HonestyByCountry computes the Figure 18/19 cells.
func (l *Lab) Fig18HonestyByCountry() (*Fig18Result, error) {
	run, err := l.Audit()
	if err != nil {
		return nil, err
	}
	return &Fig18Result{Cells: assess.HonestyMatrix(run.Results)}, nil
}

// Render shows the most-claimed countries' columns per provider.
func (r *Fig18Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 18/19 | honesty by provider and country (backed claims / claims; paper: credible claims concentrate in common hosting countries):\n")
	byProv := map[string][]assess.HonestyCell{}
	for _, c := range r.Cells {
		byProv[c.Provider] = append(byProv[c.Provider], c)
	}
	provs := make([]string, 0, len(byProv))
	for p := range byProv {
		provs = append(provs, p)
	}
	sort.Strings(provs)
	for _, p := range provs {
		cells := byProv[p]
		sort.Slice(cells, func(i, j int) bool { return cells[i].Claimed > cells[j].Claimed })
		var agg, claimed int
		for _, c := range cells {
			agg += c.Backed
			claimed += c.Claimed
		}
		n := 6
		if n > len(cells) {
			n = len(cells)
		}
		parts := make([]string, 0, n)
		for _, c := range cells[:n] {
			parts = append(parts, fmt.Sprintf("%s %d/%d", c.Country, c.Backed, c.Claimed))
		}
		fmt.Fprintf(&b, "  %s: overall %3.0f%%  top: %s\n", p, 100*float64(agg)/float64(claimed), strings.Join(parts, ", "))
	}
	return b.String()
}

// Fig20Result checks whether region size correlates with landmark
// proximity within one data-center group.
type Fig20Result struct {
	GroupKey    string
	Servers     int
	Corr        float64 // paper: no correlation
	MeanAreaKm2 float64
}

// Fig20RegionSizeVsLandmark analyzes the largest AS//24 group, as the
// paper does for AS63128.
func (l *Lab) Fig20RegionSizeVsLandmark() (*Fig20Result, error) {
	run, err := l.Audit()
	if err != nil {
		return nil, err
	}
	var bestKey string
	var bestGroup []*proxy.Server
	for key, group := range l.Fleet.DataCenterGroups() {
		if len(group) > len(bestGroup) {
			bestKey, bestGroup = key, group
		}
	}
	if len(bestGroup) < 3 {
		return nil, fmt.Errorf("experiments: no sizable group")
	}
	var areas, dists []float64
	for _, s := range bestGroup {
		r, ok := run.byServer[string(s.Host.ID)]
		if !ok || r.Region == nil || r.Region.Empty() {
			continue
		}
		c, ok2 := r.Region.Centroid()
		if !ok2 {
			continue
		}
		// Distance from the region centroid to the nearest landmark.
		nearest := nearestLandmarkKm(l, c)
		areas = append(areas, r.Region.AreaKm2())
		dists = append(dists, nearest)
	}
	if len(areas) < 3 {
		return nil, fmt.Errorf("experiments: group has too few usable regions")
	}
	return &Fig20Result{
		GroupKey:    bestKey,
		Servers:     len(areas),
		Corr:        pearson(dists, areas),
		MeanAreaKm2: mathx.Mean(areas),
	}, nil
}

func nearestLandmarkKm(l *Lab, p geo.Point) float64 {
	best := geo.HalfEquatorKm
	for _, lm := range l.Cons.All() {
		if d := geo.DistanceKm(lm.Host.Loc, p); d < best {
			best = d
		}
	}
	return best
}

// Render formats the result.
func (r *Fig20Result) Render() string {
	return fmt.Sprintf(
		"Fig 20 | group %s (%d servers): corr(region size, nearest-landmark distance) = %.3f (paper: no correlation), mean area %.0f km²",
		r.GroupKey, r.Servers, r.Corr, r.MeanAreaKm2)
}

// Fig21Row is one provider column of the comparison matrix.
type Fig21Row struct {
	Provider        string
	CBGppGenerous   float64
	CBGppStrict     float64
	ICLab           float64
	Databases       map[string]float64
	ProviderHonesty float64 // ground truth, for reference (not in the paper)
}

// Fig21Comparison computes the agreement matrix: CBG++ two ways, the
// ICLab checker, and the five IP-to-location databases.
func (l *Lab) Fig21Comparison() ([]Fig21Row, error) {
	run, err := l.Audit()
	if err != nil {
		return nil, err
	}
	agreement := assess.Agreement(run.Results)
	agreeByProv := map[string]assess.ProviderAgreement{}
	for _, a := range agreement {
		agreeByProv[a.Provider] = a
	}

	checker := &iclab.Checker{}
	var rows []Fig21Row
	span := l.Telemetry.StartStage("fig21.iclab")
	for _, p := range l.Fleet.Providers {
		row := Fig21Row{Provider: p.Name, Databases: map[string]float64{}, ProviderHonesty: p.Honesty}
		if a, ok := agreeByProv[p.Name]; ok {
			row.CBGppGenerous = a.Generous
			row.CBGppStrict = a.Strict
		}
		// ICLab: re-measure through each proxy (the checker consumes raw
		// indirect measurements; its speed limit absorbs the extra leg).
		// The re-measurement runs through the deterministic batch: each
		// proxy's stream depends only on (seed, proxy ID), not on its
		// position in the provider's roster.
		proxies := make([]netsim.HostID, len(p.Servers))
		for i, s := range p.Servers {
			proxies[i] = s.Host.ID
		}
		batch := &measure.Batch{
			Cons:        l.Cons,
			Client:      l.Client,
			Eta:         measure.DefaultEta,
			Concurrency: l.Concurrency(),
			Seed:        l.streamSeed(21),
		}
		accepted, checked := 0, 0
		for i, br := range batch.Run(context.Background(), proxies) {
			if br.Err != nil {
				continue
			}
			v, err := checker.Check(p.Servers[i].ClaimedCountry, br.Result.Measurements())
			if err != nil {
				continue
			}
			checked++
			if v.Accepted {
				accepted++
			}
		}
		if checked > 0 {
			row.ICLab = float64(accepted) / float64(checked)
		}
		for _, db := range ipdb.Databases() {
			row.Databases[db.Name] = db.AgreementRate(p.Servers)
		}
		rows = append(rows, row)
	}
	span.End()
	return rows, nil
}

// RenderFig21 formats the matrix.
func RenderFig21(rows []Fig21Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 21 | %% of claims each method agrees with (paper: databases agree far more than active geolocation):\n")
	fmt.Fprintf(&b, "  %-22s", "method")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %s", r.Provider)
	}
	fmt.Fprintln(&b)
	printRow := func(name string, get func(Fig21Row) float64) {
		fmt.Fprintf(&b, "  %-22s", name)
		for _, r := range rows {
			fmt.Fprintf(&b, " %2.0f", 100*get(r))
		}
		fmt.Fprintln(&b)
	}
	printRow("CBG++ (generous)", func(r Fig21Row) float64 { return r.CBGppGenerous })
	printRow("CBG++ (strict)", func(r Fig21Row) float64 { return r.CBGppStrict })
	printRow("ICLab", func(r Fig21Row) float64 { return r.ICLab })
	for _, db := range ipdb.Databases() {
		name := db.Name
		printRow(name, func(r Fig21Row) float64 { return r.Databases[name] })
	}
	printRow("(ground-truth honesty)", func(r Fig21Row) float64 { return r.ProviderHonesty })
	return b.String()
}

// ConfusionResult holds both confusion matrices.
type ConfusionResult struct {
	Continents map[[2]string]int
	Countries  map[[2]string]int
}

// Fig22_23Confusion computes the Figures 22–23 matrices over the audit's
// uncertain predictions.
func (l *Lab) Fig22_23Confusion() (*ConfusionResult, error) {
	run, err := l.Audit()
	if err != nil {
		return nil, err
	}
	return &ConfusionResult{
		Continents: assess.ConfusionMatrix(run.Results, assess.ContinentKey),
		Countries:  assess.ConfusionMatrix(run.Results, func(c string) string { return c }),
	}, nil
}

// Render summarizes the continent matrix (the country matrix has
// thousands of cells; the renderer shows its strongest confusions).
func (r *ConfusionResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 22 | continent confusion (diagonal = regions within one continent):\n")
	conts := worldmap.AllContinents()
	fmt.Fprintf(&b, "  %-16s", "")
	for _, c := range conts {
		fmt.Fprintf(&b, " %6.6s", c.String())
	}
	fmt.Fprintln(&b)
	for _, a := range conts {
		fmt.Fprintf(&b, "  %-16s", a.String())
		for _, c := range conts {
			fmt.Fprintf(&b, " %6d", r.Continents[[2]string{a.String(), c.String()}])
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "Fig 23 | strongest cross-country confusions:\n")
	type pairCount struct {
		pair  [2]string
		count int
	}
	var pairs []pairCount
	for p, n := range r.Countries {
		if p[0] < p[1] { // each unordered pair once, off-diagonal only
			pairs = append(pairs, pairCount{p, n})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].count != pairs[j].count {
			return pairs[i].count > pairs[j].count
		}
		return pairs[i].pair[0]+pairs[i].pair[1] < pairs[j].pair[0]+pairs[j].pair[1]
	})
	n := 12
	if n > len(pairs) {
		n = len(pairs)
	}
	for _, pc := range pairs[:n] {
		fmt.Fprintf(&b, "  %s ↔ %s: %d\n", pc.pair[0], pc.pair[1], pc.count)
	}
	return b.String()
}

// DisambiguationResult quantifies Figures 15–16 at fleet scale.
type DisambiguationResult struct {
	UncertainBefore int
	ByDataCenters   int
	ByGroups        int
}

// Fig16Disambiguation reports how many uncertain verdicts the two
// refinements resolved (paper: 353 of the uncertain cases).
func (l *Lab) Fig16Disambiguation() (*DisambiguationResult, error) {
	run, err := l.Audit()
	if err != nil {
		return nil, err
	}
	before := 0
	for _, r := range run.Results {
		if r.VerdictRaw == assess.Uncertain {
			before++
		}
	}
	return &DisambiguationResult{
		UncertainBefore: before,
		ByDataCenters:   run.ReclassifiedByDC,
		ByGroups:        run.ReclassifiedByGroup,
	}, nil
}

// Render formats the result.
func (r *DisambiguationResult) Render() string {
	return fmt.Sprintf(
		"Fig 15/16 | of %d uncertain predictions, %d resolved by data-center locations and %d by AS//24 metadata (paper: 353 total)",
		r.UncertainBefore, r.ByDataCenters, r.ByGroups)
}

// DCCheck exposes the datacenter package's region query for the
// quickstart example and the cmd layer.
func DCCheck(run *AuditRun) int {
	n := 0
	for _, r := range run.Results {
		if r.Region != nil && !r.Region.Empty() && len(datacenter.InRegion(r.Region)) > 0 {
			n++
		}
	}
	return n
}
