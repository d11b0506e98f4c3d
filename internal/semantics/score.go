package semantics

import (
	"fmt"

	"bgpworms/internal/bgp"
	"bgpworms/internal/stats"
)

// Truth is a ground-truth dictionary: every community a world's
// policies legitimately define or attach, with its true usage class.
// gen.Internet exports one (TruthDict, computed on demand), which is what
// makes inference precision and recall measurable per scenario.
type Truth map[bgp.Community]Class

// Add records one truth entry. Action classes win over informational on
// duplicates (a value can be both tagged and acted on; the action is
// the security-relevant meaning).
func (t Truth) Add(c bgp.Community, cl Class) {
	if prev, ok := t[c]; ok && prev.IsAction() && !cl.IsAction() {
		return
	}
	t[c] = cl
}

// ClassScore is the per-class confusion slice of a Score.
type ClassScore struct {
	Class Class `json:"class"`
	// TruthTotal is how many truth entries carry this class; Inferred
	// how many of those inference surfaced at all; Matched how many it
	// surfaced with the correct class.
	TruthTotal int `json:"truth_total"`
	Inferred   int `json:"inferred"`
	Matched    int `json:"matched"`
}

// Score grades an inferred dictionary against ground truth.
type Score struct {
	// InferredTotal is the dictionary size; InferredInTruth how many of
	// its entries correspond to a legitimately defined community.
	// Precision = InferredInTruth / InferredTotal: squats, decoys, and
	// poison values push it down.
	InferredTotal   int `json:"inferred_total"`
	InferredInTruth int `json:"inferred_in_truth"`
	// TruthTotal is the ground-truth size; TruthInferred how many truth
	// entries inference surfaced. Recall = TruthInferred / TruthTotal:
	// communities never used on the wire (offered services nobody
	// requested, stripped tags) bound it below 1 — the visibility limit
	// §4.4 measures from the other side.
	TruthTotal    int `json:"truth_total"`
	TruthInferred int `json:"truth_inferred"`
	// ClassMatched counts truth-and-inferred entries whose inferred
	// class equals the true class; ClassAccuracy is its share of
	// TruthInferred.
	ClassMatched int          `json:"class_matched"`
	PerClass     []ClassScore `json:"per_class"`
}

// Precision is the share of inferred entries backed by ground truth.
func (s Score) Precision() float64 {
	if s.InferredTotal == 0 {
		return 1
	}
	return float64(s.InferredInTruth) / float64(s.InferredTotal)
}

// Recall is the share of ground-truth entries inference surfaced.
func (s Score) Recall() float64 {
	if s.TruthTotal == 0 {
		return 1
	}
	return float64(s.TruthInferred) / float64(s.TruthTotal)
}

// ClassAccuracy is the share of surfaced truth entries whose class was
// inferred correctly.
func (s Score) ClassAccuracy() float64 {
	if s.TruthInferred == 0 {
		return 1
	}
	return float64(s.ClassMatched) / float64(s.TruthInferred)
}

// ScoreSummary is the flat, structured slice of a Score a suite
// harness aggregates and gates on: the three quality ratios plus the
// sizes they were computed from.
type ScoreSummary struct {
	Precision     float64 `json:"precision"`
	Recall        float64 `json:"recall"`
	ClassAccuracy float64 `json:"class_accuracy"`
	Inferred      int     `json:"inferred"`
	TruthTotal    int     `json:"truth_total"`
}

// Summary flattens the score into its gateable ratios.
func (s Score) Summary() ScoreSummary {
	return ScoreSummary{
		Precision:     s.Precision(),
		Recall:        s.Recall(),
		ClassAccuracy: s.ClassAccuracy(),
		Inferred:      s.InferredTotal,
		TruthTotal:    s.TruthTotal,
	}
}

// ScoreAgainst grades snap against truth.
func ScoreAgainst(snap *Snapshot, truth Truth) Score {
	sc := Score{InferredTotal: snap.Len(), TruthTotal: len(truth)}
	per := make(map[Class]*ClassScore)
	for _, cl := range Classes() {
		per[cl] = &ClassScore{Class: cl}
	}
	for c, cl := range truth {
		per[cl].TruthTotal++
		e, ok := snap.Lookup(c)
		if !ok {
			continue
		}
		sc.TruthInferred++
		per[cl].Inferred++
		if e.Class == cl {
			sc.ClassMatched++
			per[cl].Matched++
		}
	}
	for _, e := range snap.Entries() {
		if _, ok := truth[e.Community]; ok {
			sc.InferredInTruth++
		}
	}
	for _, cl := range Classes() {
		sc.PerClass = append(sc.PerClass, *per[cl])
	}
	return sc
}

// RenderScore renders the score as a per-class table plus summary line.
func RenderScore(s Score) string {
	t := stats.NewTable("Class", "Truth", "Inferred", "ClassMatch")
	for _, cs := range s.PerClass {
		t.Row(cs.Class.String(), cs.TruthTotal, cs.Inferred, cs.Matched)
	}
	out := t.String()
	out += fmt.Sprintf("\nentries=%d truth=%d precision=%.2f recall=%.2f class-accuracy=%.2f\n",
		s.InferredTotal, s.TruthTotal, s.Precision(), s.Recall(), s.ClassAccuracy())
	return out
}

// RenderDictionary renders a snapshot (optionally one AS) as the table
// cmd/commdict prints.
func RenderDictionary(snap *Snapshot, asn int) string {
	t := stats.NewTable("Community", "Class", "Count", "OnPath", "OffPath", "HostRt", "Peers", "Prefixes", "Travel")
	entries := snap.Entries()
	if asn >= 0 {
		entries = snap.AS(uint16(asn))
	}
	for _, e := range entries {
		t.Row(e.Name, e.Class.String(), e.Count, e.OnPath, e.OffPath, e.HostRoute, e.Peers, e.Prefixes, e.MaxTravel)
	}
	out := t.String()
	out += fmt.Sprintf("\n%d entries across %d ASes from %d observations (version %d)\n",
		snap.Len(), len(snap.ASNs()), snap.Observations, snap.Version)
	return out
}
