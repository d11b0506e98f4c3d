package watch

import (
	"io"
	"net/netip"

	"bgpworms/internal/core"
	"bgpworms/internal/policy"
	"bgpworms/internal/simnet"
	"bgpworms/internal/topo"
)

// This file adapts every update source a binary feeds onto the engine:
// MRT byte streams (the wire path the paper's pipeline consumed) and
// simnet session taps (so attack scenarios can drive detection as they
// run).

// FromUpdate converts a normalized core observation into an Event.
func FromUpdate(u *core.Update) Event {
	return Event{
		Time:        u.Time,
		Source:      u.Collector,
		PeerAS:      u.PeerAS,
		Prefix:      u.Prefix,
		ASPath:      u.ASPath,
		Communities: u.Communities,
		Withdraw:    u.Withdraw,
	}
}

// StreamMRT streams a BGP4MP update archive (as written by
// collector.WriteUpdatesMRT) into sink via the non-materializing
// reader, returning how many events were delivered. The source label
// lands on every event. The sink is wherever events should land: an
// engine's Ingest, or a durable store's (which journals before
// forwarding).
func StreamMRT(r io.Reader, source string, sink func(Event)) (int, error) {
	n := 0
	_, err := core.StreamMRTUpdates(source, source, r, func(u *core.Update) error {
		ev := FromUpdate(u)
		ev.Source = source
		sink(ev)
		n++
		return nil
	})
	return n, err
}

// DrainReader wraps a live byte source (a feed socket, a tailed file)
// for StreamMRT: onDrain runs before every Read of r. The MRT decoder
// reads through a bufio.Reader, which goes back to its source only once
// it has handed out every byte that has arrived, so onDrain fires exactly
// when every decodable event has reached the sink and the next read may
// block. Pass Engine.Dispatch and a partial batch never waits for the
// events that would have filled it.
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

// EventTap converts simnet session updates into Events and hands them
// to sink: an engine's Ingest, or anything that sits between a scenario
// replay and an engine, like the durable store (which journals each
// event before forwarding). Attach via gen.Params.Tap /
// scenario.Context.Tap to observe a world from its first origin
// announcement. The tap is lossless: the simulation waits for a
// saturated engine instead of dropping.
func EventTap(source string, sink func(Event)) simnet.UpdateTap {
	return func(from, to topo.ASN, prefix netip.Prefix, rt *policy.Route) {
		ev := Event{Source: source, PeerAS: uint32(from), Prefix: prefix}
		if rt == nil {
			ev.Withdraw = true
		} else {
			ev.ASPath = rt.ASPath.Sequence()
			ev.Communities = rt.Communities.Clone()
		}
		sink(ev)
	}
}
