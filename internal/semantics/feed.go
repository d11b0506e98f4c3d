package semantics

import (
	"net/netip"

	"bgpworms/internal/policy"
	"bgpworms/internal/simnet"
	"bgpworms/internal/topo"
)

// This file adapts simnet session taps onto the engine. MRT byte streams
// reach it through the watch engine (watch.Config.Semantics), or through
// core.StreamMRTUpdates in cmd/commdict, which keeps this package below
// core in the import graph. Withdrawals carry no communities and never
// reach the fold.

// Tap returns a simnet session tap feeding the engine: every delivered
// announcement in the simulated network becomes dictionary evidence.
// Attach via gen.Params.Tap / scenario.Context.Tap — or Network.Tap for
// a world that is already built.
func (e *Engine) Tap() simnet.UpdateTap {
	return func(from, to topo.ASN, prefix netip.Prefix, rt *policy.Route) {
		if rt == nil {
			return
		}
		e.Ingest(Observation{
			PeerAS:      uint32(from),
			Prefix:      prefix,
			ASPath:      rt.ASPath.Sequence(),
			Communities: rt.Communities.Clone(),
		})
	}
}
