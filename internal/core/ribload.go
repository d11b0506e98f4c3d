package core

import (
	"errors"
	"fmt"
	"io"
	"time"

	"bgpworms/internal/mrt"
)

// RIBView is one (collector, peer, prefix) path from a TABLE_DUMP_V2
// snapshot — the concurrent table view the paper complements updates with
// ("BGP routing tables and updates", §4.1).
type RIBView struct {
	Platform  string
	Collector string
	PeerAS    uint32
	Time      time.Time
	Update    Update // normalized route content (never a withdrawal)
}

// ReadMRTRIB parses a TABLE_DUMP_V2 snapshot stream (as written by
// collector.WriteRIBSnapshotMRT) into per-peer table entries. The stream
// must start with a PEER_INDEX_TABLE.
func ReadMRTRIB(platform, collectorName string, r io.Reader) ([]RIBView, error) {
	mr := mrt.NewReader(r)
	var out []RIBView
	for {
		rec, err := mr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("core: reading RIB MRT: %w", err)
		}
		rib, ok := rec.(*mrt.RIB)
		if !ok {
			continue // peer index tables are tracked by the reader
		}
		peers := mr.PeerTable()
		for _, e := range rib.Entries {
			if int(e.PeerIndex) >= len(peers) {
				return nil, fmt.Errorf("core: RIB entry references peer %d of %d", e.PeerIndex, len(peers))
			}
			peer := peers[e.PeerIndex]
			out = append(out, RIBView{
				Platform:  platform,
				Collector: collectorName,
				PeerAS:    peer.AS,
				Time:      rib.Timestamp,
				Update: Update{
					Platform:    platform,
					Collector:   collectorName,
					PeerAS:      peer.AS,
					Time:        e.OriginatedTime,
					Prefix:      rib.Prefix,
					ASPath:      e.Attrs.ASPath.Sequence(),
					Communities: e.Attrs.Communities.Clone(),
				},
			})
		}
	}
	return out, nil
}

// DatasetFromRIB builds a Dataset from table snapshots, enabling every §4
// analysis to run on RIB state instead of update streams (the paper uses
// both interchangeably for propagation questions).
func DatasetFromRIB(views []RIBView) *Dataset {
	ds := &Dataset{}
	metaIdx := map[string]int{}
	for _, v := range views {
		i, ok := metaIdx[v.Collector]
		if !ok {
			i = len(ds.Collectors)
			metaIdx[v.Collector] = i
			ds.Collectors = append(ds.Collectors, CollectorMeta{
				Platform: v.Platform, Name: v.Collector, PeerASNs: map[uint32]bool{},
			})
		}
		if !ds.Collectors[i].PeerASNs[v.PeerAS] {
			ds.Collectors[i].PeerASNs[v.PeerAS] = true
			ds.Collectors[i].PeerIPs++
		}
		ds.Updates = append(ds.Updates, v.Update)
	}
	return ds
}

// TableEntryCount sums entries per collector — the "BGP table entries"
// series of Figure 3.
func TableEntryCount(views []RIBView) map[string]int {
	out := map[string]int{}
	for _, v := range views {
		out[v.Collector]++
	}
	return out
}

// CompareUpdateVsRIB cross-checks the two data sources: every prefix in
// the RIB snapshot must appear in the update-derived latest view for the
// same collector and peer (the converse need not hold if updates were
// later withdrawn). Returns the number of RIB entries without a matching
// latest-route update.
func CompareUpdateVsRIB(ds *Dataset, views []RIBView) int {
	type key struct {
		col  string
		peer uint32
		pfx  string
	}
	latest := map[key]bool{}
	for _, u := range NewPipeline(0).LatestRoutes(ds) {
		latest[key{u.Collector, u.PeerAS, u.Prefix.String()}] = true
	}
	missing := 0
	for _, v := range views {
		if !latest[key{v.Collector, v.PeerAS, v.Update.Prefix.String()}] {
			missing++
		}
	}
	return missing
}
