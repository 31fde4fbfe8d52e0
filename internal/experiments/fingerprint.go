package experiments

import (
	"activegeo/internal/stream"
)

// Fingerprint serializes everything observable about an audit run: every
// per-server verdict in fleet order, the failure records, and the
// aggregate tallies. Two runs are "identical" iff their fingerprints are
// byte-equal. The determinism tests pin a golden SHA-256 of this string.
// It prints through stream.FormatFingerprint, as the streaming store's
// Store.Fingerprint does, so a streaming pass with the same verdicts
// prints the same bytes.
func Fingerprint(run *AuditRun) string {
	return stream.FormatFingerprint(len(run.Results), func(i int) stream.FingerprintRow {
		r := run.Results[i]
		row := stream.FingerprintRow{
			ID:         r.ServerID,
			Raw:        r.VerdictRaw,
			Verdict:    r.Verdict,
			Cont:       r.ContVerdict,
			Probable:   r.ProbableCountry,
			Candidates: r.Candidates,
			Suspected:  r.ManipulationSuspected,
			Score:      r.ManipulationScore,
			Reasons:    r.ManipulationReasons,
		}
		if r.Region != nil {
			row.Cells = r.Region.Count()
		}
		if e, ok := run.Errors[r.ServerID]; ok {
			row.ErrStage, row.ErrMsg = e.Stage, e.Err.Error()
		}
		row.Coverage, row.Faulty = run.Coverage[r.ServerID]
		return row
	}, run.Stats, run.AdversaryArmed, run.FlaggedLandmarks)
}
