package stream

import (
	"sort"
	"sync"

	"activegeo/internal/assess"
	"activegeo/internal/detect"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
)

// Store is the columnar (struct-of-arrays) verdict store: the only
// O(fleet) state the streaming audit keeps. Verdicts, claims and
// candidate sets are interned into small integer columns; the heavy
// per-server artifacts (RTT vectors, prediction regions) never enter the
// store — they live only inside the batch that produced them.
//
// Rows are append-only in first-seen order; re-auditing a server updates
// its row in place, so a pass over an unchanged fleet keeps rows in
// fleet order and the fingerprint lines up with the batch audit's.
type Store struct {
	mu sync.RWMutex

	ids   []netsim.HostID
	index map[netsim.HostID]int

	// Interning tables. Index 0 of countries is "", so zero-valued
	// columns read back as "no country".
	countries    []string
	countryIdx   map[string]uint16
	providers    []string
	providerIdx  map[string]uint16
	groupKeys    []string
	groupIdx     map[string]uint32
	groupMembers map[uint32][]int // group → rows, insertion order

	// Per-row columns.
	provider []uint16
	claimed  []uint16
	group    []uint32
	sig      []uint64
	assessed []bool
	lastPass []uint32

	raw, dc, final, cont []uint8 // assess.Verdict values
	probableDC           []uint16
	probableFinal        []uint16
	cells                []int32
	candidates           [][]uint16 // sorted interned country codes

	errStage []uint8 // index into stageNames
	errMsg   []string

	coverage map[int]measure.Degradation

	// Adversary-detection columns, populated only while the auditor's
	// plan is armed. advInsp holds each row's manipulation inspection —
	// the raw per-server fit is written by setResult, the judged fields
	// (Suspected/Score/Reasons) by resolveAdversary over the whole
	// population. advExcluded counts the row's measurements dropped for
	// coming from flagged landmarks.
	advArmed    bool
	advFlagged  []netsim.HostID
	advInsp     []detect.Inspection
	advExcluded []int32

	reclassifiedByGroup int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		index:        map[netsim.HostID]int{},
		countries:    []string{""},
		countryIdx:   map[string]uint16{"": 0},
		providers:    []string{""},
		providerIdx:  map[string]uint16{"": 0},
		groupKeys:    []string{""},
		groupIdx:     map[string]uint32{"": 0},
		groupMembers: map[uint32][]int{},
		coverage:     map[int]measure.Degradation{},
	}
}

func (s *Store) internCountry(c string) uint16 {
	if i, ok := s.countryIdx[c]; ok {
		return i
	}
	i := uint16(len(s.countries))
	s.countries = append(s.countries, c)
	s.countryIdx[c] = i
	return i
}

func (s *Store) internProvider(p string) uint16 {
	if i, ok := s.providerIdx[p]; ok {
		return i
	}
	i := uint16(len(s.providers))
	s.providers = append(s.providers, p)
	s.providerIdx[p] = i
	return i
}

func (s *Store) internGroup(g string) uint32 {
	if i, ok := s.groupIdx[g]; ok {
		return i
	}
	i := uint32(len(s.groupKeys))
	s.groupKeys = append(s.groupKeys, g)
	s.groupIdx[g] = i
	return i
}

// Len returns the number of rows.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.ids)
}

// ensure returns the row for spec's server, creating it on first sight
// and keeping its group membership current.
func (s *Store) ensure(spec ServerSpec) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	row, ok := s.index[spec.ID]
	if !ok {
		row = len(s.ids)
		s.ids = append(s.ids, spec.ID)
		s.index[spec.ID] = row
		s.provider = append(s.provider, s.internProvider(spec.Provider))
		s.claimed = append(s.claimed, s.internCountry(spec.Claimed))
		s.group = append(s.group, 0)
		s.sig = append(s.sig, 0)
		s.assessed = append(s.assessed, false)
		s.lastPass = append(s.lastPass, 0)
		s.raw = append(s.raw, uint8(assess.Uncertain))
		s.dc = append(s.dc, uint8(assess.Uncertain))
		s.final = append(s.final, uint8(assess.Uncertain))
		s.cont = append(s.cont, uint8(assess.Uncertain))
		s.probableDC = append(s.probableDC, 0)
		s.probableFinal = append(s.probableFinal, 0)
		s.cells = append(s.cells, 0)
		s.candidates = append(s.candidates, nil)
		s.errStage = append(s.errStage, 0)
		s.errMsg = append(s.errMsg, "")
		s.advInsp = append(s.advInsp, detect.Inspection{})
		s.advExcluded = append(s.advExcluded, 0)
	}
	g := s.internGroup(spec.GroupKey)
	if old := s.group[row]; old != g {
		if old != 0 || ok {
			members := s.groupMembers[old]
			for i, r := range members {
				if r == row {
					s.groupMembers[old] = append(members[:i], members[i+1:]...)
					break
				}
			}
		}
		s.group[row] = g
		s.groupMembers[g] = append(s.groupMembers[g], row)
	}
	return row
}

// sigOf returns the row's stored dependency signature and whether the
// row has ever been assessed.
func (s *Store) sigOf(row int) (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sig[row], s.assessed[row]
}

// stageNames maps the errStage column back to the stage names.
var stageNames = [...]string{"", StageMeasure, StageLocate}

// setResult writes one server's freshly computed assessment into its
// row. deg is the measurement's fault ledger (nil on the fault-free
// path); the campaign that filled it is finished, so the row may keep
// its LostLandmarks slice without a copy.
func (s *Store) setResult(it batchItem, pass uint32, sa *ServerAudit, deg *measure.Degradation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	row, res := it.row, sa.Result
	s.provider[row] = s.internProvider(it.spec.Provider)
	s.claimed[row] = s.internCountry(it.spec.Claimed)
	s.sig[row] = it.sig
	s.assessed[row] = true
	s.lastPass[row] = pass
	s.raw[row] = uint8(res.VerdictRaw)
	s.dc[row] = uint8(res.Verdict)
	s.final[row] = uint8(res.Verdict) // group disambiguation refines this in resolveGroups
	s.cont[row] = uint8(res.ContVerdict)
	p := s.internCountry(res.ProbableCountry)
	s.probableDC[row] = p
	s.probableFinal[row] = p
	s.cells[row] = int32(res.Region.Count())
	if len(res.Candidates) == 0 {
		s.candidates[row] = nil
	} else {
		cand := make([]uint16, len(res.Candidates))
		for i, c := range res.Candidates {
			cand[i] = s.internCountry(c)
		}
		s.candidates[row] = cand
	}
	s.errStage[row] = 0
	s.errMsg[row] = ""
	if sa.ErrStage != "" {
		for i, name := range stageNames {
			if name == sa.ErrStage {
				s.errStage[row] = uint8(i)
			}
		}
		s.errMsg[row] = sa.Err.Error()
	}
	if deg != nil {
		s.coverage[row] = *deg
	} else {
		delete(s.coverage, row)
	}
	s.advInsp[row] = sa.Inspection
	s.advExcluded[row] = int32(sa.Excluded)
}

// setAdversary records the current pass's adversary state: whether the
// detection layer is armed (which switches the fingerprint's adversary
// annotations on) and the sorted flagged-landmark set.
func (s *Store) setAdversary(armed bool, flagged []netsim.HostID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advArmed = armed
	s.advFlagged = append(s.advFlagged[:0], flagged...)
}

// resolveAdversary re-judges every row's manipulation inspection against
// the whole store's population, mirroring the batch audit's
// detect.JudgeServers stage. Like resolveGroups it is idempotent — the
// judged fields are a pure function of the raw per-row fits, so deltas
// from a partial re-audit compose exactly as a full pass would.
func (s *Store) resolveAdversary(cfg detect.InspectConfig) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.advArmed {
		return
	}
	byID := make(map[string]detect.Inspection, len(s.ids))
	for row, id := range s.ids {
		byID[string(id)] = s.advInsp[row]
	}
	judged := detect.JudgeServers(byID, cfg)
	for row, id := range s.ids {
		s.advInsp[row] = judged[string(id)]
	}
}

// resolveGroups reruns the Figure 16 metadata disambiguation over every
// group, recomputing the final verdicts from the post-data-center
// columns. It is idempotent — deltas from a partial re-audit compose
// with unchanged rows exactly as a full batch pass would, because the
// group refinement is a pure function of the group's candidate sets.
// Semantics mirror assess.DisambiguateGroup.
func (s *Store) resolveGroups() {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Reset finals to the pre-group verdicts.
	for row := range s.final {
		s.final[row] = s.dc[row]
		s.probableFinal[row] = s.probableDC[row]
	}
	s.reclassifiedByGroup = 0
	gids := make([]int, 0, len(s.groupMembers))
	for g := range s.groupMembers {
		if g != 0 {
			gids = append(gids, int(g))
		}
	}
	sort.Ints(gids)
	common := map[uint16]int{}
	for _, gi := range gids {
		rows := s.groupMembers[uint32(gi)]
		if len(rows) < 2 {
			continue
		}
		for k := range common {
			delete(common, k)
		}
		usable := 0
		for _, row := range rows {
			if s.cells[row] == 0 {
				continue
			}
			usable++
			for _, c := range s.candidates[row] {
				common[c]++
			}
		}
		if usable < 2 {
			continue
		}
		var shared []uint16
		for c, n := range common {
			if n == usable {
				shared = append(shared, c)
			}
		}
		if len(shared) == 0 {
			continue
		}
		// Sort by country code, as DisambiguateGroup does, so shared[0]
		// (the ascribed probable country) matches the batch audit.
		sort.Slice(shared, func(i, j int) bool {
			return s.countries[shared[i]] < s.countries[shared[j]]
		})
		for _, row := range rows {
			if s.cells[row] == 0 || assess.Verdict(s.dc[row]) != assess.Uncertain {
				continue
			}
			claimedShared := false
			for _, c := range shared {
				if c == s.claimed[row] {
					claimedShared = true
					break
				}
			}
			switch {
			case !claimedShared:
				s.final[row] = uint8(assess.False)
			case len(shared) == 1:
				s.final[row] = uint8(assess.Credible)
			}
			s.probableFinal[row] = shared[0]
			if assess.Verdict(s.final[row]) != assess.Uncertain {
				s.reclassifiedByGroup++
			}
		}
	}
}

// Tally aggregates the final verdicts the way assess.Tabulate does,
// straight off the columns — no result materialization.
func (s *Store) Tally() assess.Tally {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var t assess.Tally
	for row := range s.final {
		t.Add(assess.Verdict(s.final[row]), assess.Verdict(s.cont[row]))
	}
	return t
}

// Stats are the audit-wide aggregates: the store computes them from its
// columns, and the batch audit's AuditRun embeds them.
type Stats struct {
	Servers int
	// ReclassifiedByDC counts uncertain→(credible|false) flips from the
	// data-center check; ReclassifiedByGroup those from the AS//24 check.
	ReclassifiedByDC    int
	ReclassifiedByGroup int
	// MeasureFailures and LocateFailures count the servers the pipeline
	// produced no region for, by the stage that failed.
	MeasureFailures int
	LocateFailures  int

	// Fault-resilience aggregates over the FaultyServers that kept a
	// fault ledger (none on the fault-free path); DegradedServers counts
	// those whose confidence is not "full".
	FaultyServers   int
	Retries         int
	ProbeFailures   int
	LostLandmarks   int
	Disconnects     int
	DegradedServers int

	// Adversary aggregates, zero while the plan is disarmed: samples
	// dropped because a flagged landmark reported them, and
	// manipulation-suspected verdicts.
	ExcludedMeasurements int
	SuspectedServers     int
}

// AddCoverage folds one server's fault ledger into the aggregates.
func (st *Stats) AddCoverage(d *measure.Degradation) {
	st.FaultyServers++
	st.Retries += d.Retries
	st.ProbeFailures += d.ProbeFailures
	st.LostLandmarks += len(d.LostLandmarks)
	if d.Disconnected {
		st.Disconnects++
	}
	if d.Confidence() != measure.ConfidenceFull {
		st.DegradedServers++
	}
}

// Stats computes the aggregates.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.statsLocked()
}

func (s *Store) statsLocked() Stats {
	st := Stats{Servers: len(s.ids), ReclassifiedByGroup: s.reclassifiedByGroup}
	for row := range s.ids {
		if assess.Verdict(s.raw[row]) == assess.Uncertain && assess.Verdict(s.dc[row]) != assess.Uncertain {
			st.ReclassifiedByDC++
		}
		switch stageNames[s.errStage[row]] {
		case StageMeasure:
			st.MeasureFailures++
		case StageLocate:
			st.LocateFailures++
		}
		if c, ok := s.coverage[row]; ok {
			st.AddCoverage(&c)
		}
		if s.advArmed {
			st.ExcludedMeasurements += int(s.advExcluded[row])
			if s.advInsp[row].Suspected {
				st.SuspectedServers++
			}
		}
	}
	return st
}

// VerdictOf returns the final verdict and probable country for one
// server (ok=false if the server was never seen).
func (s *Store) VerdictOf(id netsim.HostID) (v assess.Verdict, probable string, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	row, found := s.index[id]
	if !found {
		return 0, "", false
	}
	return assess.Verdict(s.final[row]), s.countries[s.probableFinal[row]], true
}

// InspectionOf returns one server's judged manipulation inspection
// (ok=false if the server was never seen). Meaningful only while the
// auditor's adversary plan is armed; on the honest path it is zero.
func (s *Store) InspectionOf(id netsim.HostID) (detect.Inspection, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	row, found := s.index[id]
	if !found {
		return detect.Inspection{}, false
	}
	return s.advInsp[row], true
}

// LastPass returns the Sync pass (1-based) in which the server was last
// measured, 0 if never.
func (s *Store) LastPass(id netsim.HostID) uint32 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	row, found := s.index[id]
	if !found {
		return 0
	}
	return s.lastPass[row]
}

// Fingerprint serializes the store in row order through
// FormatFingerprint, the format experiments.Fingerprint prints a batch
// audit in. Parity with the golden audit SHA pins the streaming engine
// to the batch one.
func (s *Store) Fingerprint() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return FormatFingerprint(len(s.ids), func(row int) FingerprintRow {
		r := FingerprintRow{
			ID:       string(s.ids[row]),
			Raw:      assess.Verdict(s.raw[row]),
			Verdict:  assess.Verdict(s.final[row]),
			Cont:     assess.Verdict(s.cont[row]),
			Probable: s.countries[s.probableFinal[row]],
			Cells:    int(s.cells[row]),
			ErrStage: stageNames[s.errStage[row]],
			ErrMsg:   s.errMsg[row],
		}
		if cs := s.candidates[row]; len(cs) > 0 {
			r.Candidates = make([]string, len(cs))
			for i, c := range cs {
				r.Candidates[i] = s.countries[c]
			}
		}
		r.Coverage, r.Faulty = s.coverage[row]
		insp := s.advInsp[row]
		r.Suspected, r.Score, r.Reasons = insp.Suspected, insp.Score, insp.Reasons
		return r
	}, s.statsLocked(), s.advArmed, s.advFlagged)
}
