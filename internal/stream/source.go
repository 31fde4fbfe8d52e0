// Package stream is the streaming fleet audit, and the home of the §6
// per-server audit kernel that both audit engines run. AuditServer takes
// one measured server through landmark exclusion, the four-measurement
// floor, localization, claim assessment and manipulation inspection;
// FormatFingerprint prints an audit's verdicts; ParallelFor is the
// worker pool. The materializing Lab.Audit calls them over the whole
// fleet at once and keeps every region alive — O(fleet) — which caps
// the auditable fleet far below the ROADMAP's production scale.
//
// The Auditor calls the same kernel from a bounded-queue batch
// scheduler instead: per-server RTT vectors and regions live only for
// the batch that carries them, and the only O(fleet) state is the
// columnar verdict store (a few dozen bytes per server).
//
// Re-assessment is churn-driven: every verdict is stamped with a
// dependency signature over the atlas epoch, the fault ledger and the
// server's claim, and a Sync pass re-measures only the servers whose
// signature changed. Measurement randomness comes from the same
// per-entity streams as the batch audit (measure.StreamSeed over the
// same base seed), so a streaming pass over an unchanged fleet is
// byte-identical to Lab.Audit — fingerprint parity is pinned in
// internal/experiments' tests against the audit golden SHA.
package stream

import (
	"activegeo/internal/netsim"
	"activegeo/internal/proxy"
)

// ServerSpec is the compact description of one fleet member — everything
// the audit needs to measure and judge it, without holding the server
// object itself.
type ServerSpec struct {
	ID       netsim.HostID
	Provider string
	// Claimed is the provider's advertised country (ISO code).
	Claimed string
	// GroupKey clusters servers claimed to share one physical location
	// (provider/AS//24, as in Fleet.DataCenterGroups); empty means the
	// server is in no group.
	GroupKey string
}

// Source enumerates a fleet for the streaming auditor. Specs must be
// cheap: the feeder calls Spec once per server per pass.
type Source interface {
	Len() int
	Spec(i int) ServerSpec
}

// Provisioner is an optional Source extension for fleets whose hosts do
// not pre-exist in the network: the scheduler provisions each batch's
// hosts just before measuring and releases them right after assessment,
// so the network holds O(batch) synthetic hosts, never O(fleet).
type Provisioner interface {
	// Provision registers the hosts for the given specs.
	Provision(specs []ServerSpec) error
	// Release deregisters them again.
	Release(specs []ServerSpec)
}

// FleetSource adapts a materialized proxy.Fleet (hosts already
// registered in the network) to the streaming auditor, enumerating
// servers in the same provider-then-ID order as Fleet.Servers so
// fingerprints line up row for row with the batch audit.
type FleetSource struct {
	servers []*proxy.Server
}

// NewFleetSource builds a source over the fleet's current servers.
func NewFleetSource(f *proxy.Fleet) *FleetSource {
	return &FleetSource{servers: f.Servers()}
}

// Len implements Source.
func (s *FleetSource) Len() int { return len(s.servers) }

// Spec implements Source.
func (s *FleetSource) Spec(i int) ServerSpec {
	sv := s.servers[i]
	return ServerSpec{
		ID:       sv.Host.ID,
		Provider: sv.Provider,
		Claimed:  sv.ClaimedCountry,
		GroupKey: sv.GroupKey(),
	}
}
