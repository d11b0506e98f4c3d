// Package feed is the one routing observation record and the two ways a
// stream of them is made. A peer announced or withdrew a prefix with an
// AS path and a community set: that fact is an Event, decoded once, and
// every consumer takes it as it is — the §4 fold (internal/core), the
// streaming detectors (internal/watch), dictionary inference
// (internal/semantics) and the durable journal (internal/durable).
//
// Events come from StreamMRT, which decodes BGP4MP update archives and
// live feed bytes, and from Tap, which adapts a simulated network's
// session deliveries. The package sits below every consumer and imports
// only the wire and simulation layers (bgp, mrt, simnet, topo).
package feed

import (
	"errors"
	"fmt"
	"io"
	"net/netip"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/mrt"
	"bgpworms/internal/simnet"
	"bgpworms/internal/topo"
)

// Event is one normalized routing observation: an announcement or
// withdrawal seen on some feed session.
type Event struct {
	// Seq is the ingest sequence number (1-based). Producers leave it
	// zero and the consuming engine assigns it in call order; a non-zero
	// Seq is trusted verbatim (the durable replay and sharded-feed paths
	// pre-assign global sequence numbers) and must arrive in increasing
	// order.
	Seq uint64 `json:"seq"`
	// Time is the observation timestamp. Zero means "synthesize": the
	// engines stamp LogicalTime(Seq), which keeps clockless feeds
	// (simnet taps) deterministic.
	Time time.Time `json:"time"`
	// Source names the feed the event arrived on; for collector archives
	// it is the collector name, e.g. "RIS-00".
	Source string `json:"source,omitempty"`
	// PeerAS is the session peer (for simnet taps, the exporting AS).
	PeerAS uint32       `json:"peer_as"`
	Prefix netip.Prefix `json:"prefix"`
	// ASPath is nearest-AS-first (peer first, origin last), raw (with
	// prepending).
	ASPath []uint32 `json:"as_path,omitempty"`
	// Communities is the normalized community set.
	Communities bgp.CommunitySet `json:"communities,omitempty"`
	// Withdraw marks withdrawals; path and communities are empty.
	Withdraw bool `json:"withdraw,omitempty"`
}

// LogicalTime is the synthesized clock of a clockless feed: the nth
// observation is n ticks of 37 ms into the nominal observation month
// (April 2018, the paper's). The collectors stamp their archives with
// it and the engines stamp events that arrive without a time.
func LogicalTime(n uint64) time.Time {
	return logicalBase.Add(time.Duration(n) * 37 * time.Millisecond)
}

var logicalBase = time.Date(2018, 4, 1, 0, 0, 0, 0, time.UTC)

// Origin returns the originating AS (0 for empty paths).
func (ev *Event) Origin() uint32 {
	if len(ev.ASPath) == 0 {
		return 0
	}
	return ev.ASPath[len(ev.ASPath)-1]
}

// StreamMRT decodes a BGP4MP update stream (as written by
// collector.WriteUpdatesMRT) and hands sink one Event per announced or
// withdrawn prefix, labelled with source, without materializing the
// stream. Records decode through one reused bgp.Update, and each record
// that announces gets one copy of its path and community set, shared by
// that record's prefixes: a sink may keep what it is given but must not
// write into it. A withdrawal carries no slices. It returns how many
// events reached the sink.
func StreamMRT(r io.Reader, source string, sink func(Event)) (int, error) {
	mr := mrt.NewReader(r)
	var upd bgp.Update
	n := 0
	emit := func(ev Event, prefixes []netip.Prefix) {
		for _, p := range prefixes {
			ev.Prefix = p
			sink(ev)
		}
		n += len(prefixes)
	}
	for {
		rec, err := mr.NextUpdate(&upd)
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("feed: reading MRT: %w", err)
		}
		msg, ok := rec.(*mrt.BGP4MPMessage)
		if !ok {
			continue // state changes etc. carry no routes
		}
		if _, ok := msg.Message.(*bgp.Update); !ok {
			continue // the UPDATE, when there is one, is upd
		}
		base := Event{Time: msg.Timestamp, Source: source, PeerAS: msg.PeerAS}
		if len(upd.NLRI)+len(upd.Attrs.MPReachNLRI) > 0 {
			ann := base
			ann.ASPath = upd.Attrs.ASPath.Sequence()
			if len(upd.Attrs.Communities) > 0 {
				ann.Communities = upd.Attrs.Communities.Clone()
			}
			emit(ann, upd.NLRI)
			emit(ann, upd.Attrs.MPReachNLRI)
		}
		base.Withdraw = true
		emit(base, upd.Withdrawn)
		emit(base, upd.Attrs.MPUnreachNLRI)
	}
}

// DrainReader wraps a live byte source (a feed socket, a tailed file)
// for StreamMRT: onDrain runs before every Read of r. The MRT decoder
// reads through a bufio.Reader, which goes back to its source only once
// it has handed out every byte that has arrived, so onDrain fires exactly
// when every decodable event has reached the sink and the next read may
// block. Pass the watch engine's Dispatch and a partial batch never
// waits for the events that would have filled it.
func DrainReader(r io.Reader, onDrain func()) io.Reader {
	return &drainReader{r: r, onDrain: onDrain}
}

type drainReader struct {
	r       io.Reader
	onDrain func()
}

func (d *drainReader) Read(p []byte) (int, error) {
	d.onDrain()
	return d.r.Read(p)
}

// Tap adapts a simulated network's session deliveries into Events for
// sink, labelled with source: the exporting AS is the peer, the zero
// RouteRef a withdrawal. Attach via gen.Params.Tap / scenario.Context.Tap to
// observe a world from its first origin announcement, or Network.Tap
// for one already built. The tap is lossless: a sink that blocks (a
// saturated watch engine) stalls the simulation instead of dropping.
func Tap(source string, sink func(Event)) simnet.UpdateTap {
	return func(from, to topo.ASN, prefix netip.Prefix, ref simnet.RouteRef) {
		ev := Event{Source: source, PeerAS: uint32(from), Prefix: prefix}
		if !ref.Valid() {
			ev.Withdraw = true
		} else {
			rt := ref.Route()
			ev.ASPath = rt.ASPath.Sequence()
			ev.Communities = rt.Communities.Clone()
		}
		sink(ev)
	}
}
