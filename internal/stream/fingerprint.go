package stream

import (
	"fmt"
	"strings"

	"activegeo/internal/assess"
	"activegeo/internal/measure"
	"activegeo/internal/netsim"
)

// FingerprintRow is everything the fingerprint prints about one server.
type FingerprintRow struct {
	ID                 string
	Raw, Verdict, Cont assess.Verdict
	Probable           string
	Candidates         []string
	Cells              int
	// ErrStage and ErrMsg describe a pipeline failure ("" = none).
	ErrStage, ErrMsg string
	// Coverage is the server's fault ledger, printed when Faulty (never
	// on the fault-free path).
	Coverage measure.Degradation
	Faulty   bool
	// Suspected, Score and Reasons are the judged manipulation
	// inspection, printed only while the adversary plan is armed.
	Suspected bool
	Score     float64
	Reasons   []string
}

// FormatFingerprint serializes an audit: one line per server from
// row(0..n-1), then the tally line, the faults line when any server kept
// a fault ledger, and the adversary line when the plan is armed. Both
// engines print through it (experiments.Fingerprint reads an AuditRun,
// Store.Fingerprint the columns), so equal verdicts give equal bytes.
// The fault and adversary annotations exist only when those layers are
// on, so the honest fault-free fingerprint keeps its golden SHA.
func FormatFingerprint(n int, row func(i int) FingerprintRow, st Stats, armed bool, flagged []netsim.HostID) string {
	var b strings.Builder
	var t assess.Tally
	for i := 0; i < n; i++ {
		r := row(i)
		t.Add(r.Verdict, r.Cont)
		fmt.Fprintf(&b, "%s|%s|%s|%s|%s|%v|%d", r.ID, r.Raw, r.Verdict, r.Cont, r.Probable, r.Candidates, r.Cells)
		if r.ErrStage != "" {
			fmt.Fprintf(&b, "|err:%s:%s", r.ErrStage, r.ErrMsg)
		}
		if r.Faulty {
			c := &r.Coverage
			fmt.Fprintf(&b, "|cov:%d/%d:r%d:f%d:lost%v:disc%v:budget%v:%.4f:%s",
				c.Measured, c.Planned, c.Retries, c.ProbeFailures, c.LostLandmarks,
				c.Disconnected, c.BudgetExhausted, c.Coverage(), c.Confidence())
		}
		if armed {
			fmt.Fprintf(&b, "|adv:%v:%.4f:%v", r.Suspected, r.Score, r.Reasons)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "tally:%d/%d/%d offcont:%d samecont:%d dc:%d group:%d mfail:%d lfail:%d\n",
		t.Credible, t.Uncertain, t.False, t.FalseOffContinent, t.UncertainSameCont,
		st.ReclassifiedByDC, st.ReclassifiedByGroup, st.MeasureFailures, st.LocateFailures)
	if st.FaultyServers > 0 {
		fmt.Fprintf(&b, "faults: retries:%d probefail:%d lost:%d disc:%d degraded:%d\n",
			st.Retries, st.ProbeFailures, st.LostLandmarks, st.Disconnects, st.DegradedServers)
	}
	if armed {
		fmt.Fprintf(&b, "adversary: flagged:%v excluded:%d suspected:%d\n",
			flagged, st.ExcludedMeasurements, st.SuspectedServers)
	}
	return b.String()
}
