package simnet

import (
	"time"

	"bgpworms/internal/obs"
)

// Package-level instrumentation on obs.Default: simnet has no config
// surface to thread a registry through (networks are built by gen and
// scenarios everywhere), and its series are process-global by nature —
// a daemon replaying scenarios feeds its /metrics page automatically.
// All writes happen at run or round granularity in serial sections, so
// the hot per-delivery loops are untouched. Metrics are observational
// only: tap streams and convergence results are identical either way.
var (
	// The run series keep their {engine="delta"} label, so the names
	// /metrics serves do not change.
	deltaRuns = runMetrics{
		runs:       obs.Default.Counter(`simnet_runs_total{engine="delta"}`, "convergence runs"),
		deliveries: obs.Default.Counter(`simnet_deliveries_total{engine="delta"}`, "route deliveries (convergence steps)"),
		secs:       obs.Default.Histogram(`simnet_run_seconds{engine="delta"}`, "convergence wall time", obs.DurationBuckets),
	}

	deltaRounds        = obs.Default.Counter("simnet_delta_rounds_total", "delta engine convergence rounds")
	deltaDirtyPrefixes = obs.Default.Counter("simnet_delta_dirty_prefixes_total", "dirty (router,prefix) work items across delta rounds")
	deltaExports       = obs.Default.Counter("simnet_delta_export_batches_total", "phase-1 export shards (one per dirty source router per round)")
	tapReplayed        = obs.Default.Counter("simnet_tap_replayed_total", "deliveries buffered for tap replay (those to a receiver some tap observes)")
	arenaRoutes        = obs.Default.Counter("simnet_route_arena_routes_total", "routes stored in network route arenas by delta engine windows (never freed before their network)")
	internedPaths      = obs.Default.Counter("simnet_interned_paths_total", "distinct AS paths delta engine windows added to network intern tables")
	internedComms      = obs.Default.Counter("simnet_interned_community_sets_total", "distinct community sets delta engine windows added to network intern tables")
)

// runMetrics is what one engine run tallies.
type runMetrics struct {
	runs, deliveries *obs.Counter
	secs             *obs.Histogram
}

// observe tallies one run that started at start and delivered
// delivered updates.
func (m runMetrics) observe(start time.Time, delivered int) {
	m.secs.ObserveSince(start)
	m.runs.Inc()
	m.deliveries.Add(uint64(delivered))
}

// deltaRoundTally accumulates per-round churn locally inside runDelta
// (the counters are flushed once per run, not per round).
type deltaRoundTally struct {
	rounds, prefixes, exports uint64
}

func (t *deltaRoundTally) flush() {
	if t.rounds == 0 {
		return
	}
	deltaRounds.Add(t.rounds)
	deltaDirtyPrefixes.Add(t.prefixes)
	deltaExports.Add(t.exports)
}
