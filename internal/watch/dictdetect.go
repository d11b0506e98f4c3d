package watch

import (
	"fmt"
	"slices"

	"bgpworms/internal/feed"
	"bgpworms/internal/semantics"
)

// This file holds the dictionary-aware detectors: where the PR-3
// detectors reason from value patterns and per-prefix windows alone,
// these consult an inferred per-AS community dictionary
// (internal/semantics) — CommunityWatch's move from "looks odd" to
// "departs from this AS's observed vocabulary".
//
// Both detectors bind to a semantics.Provider when ResolveDetectors
// builds them, and only when it is given one: the engine's default set
// carries them exactly when Config.Dict is set.
//
// Determinism: with a frozen *semantics.Snapshot the alert set is
// bit-identical across shard counts, exactly like the builtin
// detectors. With a live provider (a semantics.Engine, whose snapshot a
// daemon republishes while ingesting) alerts depend on refresh timing —
// fine for a daemon, wrong for an eval; harnesses freeze.

// DictSquatName and UnknownActionName are the pair's catalog keys.
const (
	DictSquatName     = "dict-squat"
	UnknownActionName = "unknown-action-community"
)

// dictSquat is the dictionary-aware squat detector: it fires only when
// a community's defining AS is off-path AND the value is outside that
// AS's inferred dictionary. Recurring legitimate off-path uses
// (community bundling, private tags, action requests traveling toward
// their definer) are in the dictionary and stay silent, which is what
// cuts the community-squat detector's false positives
// (TestDictSquatReducesFalsePositives).
type dictSquat struct{ dict semantics.Provider }

func (dictSquat) Name() string { return DictSquatName }
func (d dictSquat) Observe(st *PrefixState, ev *feed.Event, emit func(Alert)) {
	if ev.Withdraw {
		return
	}
	for _, c := range ev.Communities {
		if c.IsWellKnown() || slices.Contains(ev.ASPath, uint32(c.ASN())) || st.HasCommunity(c) {
			continue
		}
		if _, known := d.dict.Lookup(c); known {
			continue // inside the AS's observed vocabulary
		}
		emit(Alert{
			Severity:  Warning,
			Community: c.String(),
			Message: fmt.Sprintf("community %s names off-path AS%d and is outside its inferred dictionary (origin AS%d)",
				c, c.ASN(), ev.Origin()),
		})
	}
}

// unknownAction is the detector for action-patterned communities with
// no inferred service behind them: a blackhole-valued community (:666 /
// :999 / RFC 7999) whose defining AS's dictionary does not classify it
// as a blackhole action. Real triggers are in the dictionary as
// action-blackhole and stay silent; squatted decoys — the §7.6 "likely"
// population — fire.
type unknownAction struct{ dict semantics.Provider }

func (unknownAction) Name() string { return UnknownActionName }
func (d unknownAction) Observe(st *PrefixState, ev *feed.Event, emit func(Alert)) {
	if ev.Withdraw {
		return
	}
	for _, c := range ev.Communities {
		if c.IsWellKnown() || !semantics.BlackholePattern(c) {
			continue
		}
		if e, ok := d.dict.Lookup(c); ok && e.Class == semantics.ClassActionBlackhole {
			continue // a known trigger: blackhole-onset owns this case
		}
		if st.HasCommunity(c) {
			continue // one alert per windowed episode
		}
		emit(Alert{
			Severity:  Warning,
			Community: c.String(),
			Message: fmt.Sprintf("blackhole-patterned community %s has no inferred RTBH service at AS%d (origin AS%d)",
				c, c.ASN(), ev.Origin()),
		})
	}
}
