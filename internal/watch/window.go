package watch

import (
	"net/netip"
	"time"

	"bgpworms/internal/bgp"
	"bgpworms/internal/feed"
)

// PrefixState is the sliding-window state one prefix carries: a ring
// buffer of its most recent events, bounded both by count
// (Config.WindowEvents) and by age (Config.Window). Detectors receive
// the state as it was *before* the event under observation, so "new in
// the window" questions need no self-exclusion.
//
// A PrefixState lives wholly inside one shard; detectors must not
// retain it across Observe calls.
type PrefixState struct {
	ring  []entry
	t     *tables // the shard's, resolving every entry's ids
	head  int     // index of the oldest event
	n     int
	total uint64
}

// entry is one windowed event as a ring holds it: 40 bytes and no
// pointer, against 144 for a feed.Event, so a ring is memory the
// collector never scans. The prefix is the window's key, so no entry
// repeats it; the time is kept as Unix seconds and nanoseconds, the
// event's path and community set as ids into its shard's intern tables,
// and its source and time zone as an id into the shard's origins.
type entry struct {
	seq      uint64
	sec      int64
	nsec     int32
	peerAS   uint32
	origin   uint32
	path     uint32
	comms    uint32
	withdraw bool
}

// origin is what the entries of one shard share: the source an event
// arrived on and the location its time was stated in.
type origin struct {
	source string
	loc    *time.Location
}

// origins interns a shard's origins. A shard's list only grows, and an
// id, once given, names the same origin for good, so an export shares
// a prefix of the list instead of copying it. A feed carries a handful
// of origins, so the table stays small.
type origins struct {
	list []origin
	ids  map[origin]uint32
	last uint32 // the id returned last: one feed's events repeat it
}

// id interns (source, loc) and returns its id.
func (o *origins) id(source string, loc *time.Location) uint32 {
	k := origin{source, loc}
	if int(o.last) < len(o.list) && o.list[o.last] == k {
		return o.last
	}
	id, ok := o.ids[k]
	if !ok {
		if o.ids == nil {
			o.ids = make(map[origin]uint32)
		}
		id = uint32(len(o.list))
		o.list = append(o.list, k)
		o.ids[k] = id
	}
	o.last = id
	return id
}

// frozen is the list as it stands, as origins of its own that later
// interning never changes.
func (o *origins) frozen() origins {
	return origins{list: o.list[:len(o.list):len(o.list)]}
}

// before reports whether the entry's time is before the instant
// (sec, nsec), as time.Time.Before would on wall clocks.
func (e *entry) before(sec int64, nsec int32) bool {
	return e.sec < sec || e.sec == sec && e.nsec < nsec
}

// WindowEvent is a windowed event read in place: the one way detectors,
// PrefixInfo, RestoreState and the checkpoint codec read a window, in
// an engine or in an exported State.
type WindowEvent struct {
	e *entry
	t *tables
}

// Seq is the event's ingest sequence number.
func (w WindowEvent) Seq() uint64 { return w.e.seq }

// Time is the event's time as it was ingested: the same instant in the
// same location, == to the original (a monotonic clock reading, which
// no feed's time carries, is not kept). A zero time stays zero.
func (w WindowEvent) Time() time.Time {
	return time.Unix(w.e.sec, int64(w.e.nsec)).In(w.t.origins.list[w.e.origin].loc)
}

// ASPath is the event's AS path, shared with the window's table: read
// only.
func (w WindowEvent) ASPath() []uint32 { return w.t.paths.at(w.e.path) }

// Communities is the event's community set, shared with the window's
// table: read only.
func (w WindowEvent) Communities() bgp.CommunitySet { return w.t.comms.at(w.e.comms) }

// Withdraw reports whether the event was a withdrawal.
func (w WindowEvent) Withdraw() bool { return w.e.withdraw }

// Origin returns the originating AS (0 for an empty path).
func (w WindowEvent) Origin() uint32 {
	path := w.ASPath()
	if len(path) == 0 {
		return 0
	}
	return path[len(path)-1]
}

// FeedEvent materialises the windowed event for prefix p, the key of the
// window it sits in. Its slices are the window's table's: read only.
func (w WindowEvent) FeedEvent(p netip.Prefix) feed.Event {
	return feed.Event{
		Seq: w.e.seq, Time: w.Time(), Source: w.t.origins.list[w.e.origin].source,
		PeerAS: w.e.peerAS, Prefix: p,
		ASPath: w.ASPath(), Communities: w.Communities(), Withdraw: w.e.withdraw,
	}
}

func newPrefixState(capacity int, t *tables) *PrefixState {
	return &PrefixState{ring: make([]entry, capacity), t: t}
}

// Len is the current window occupancy.
func (s *PrefixState) Len() int { return s.n }

// At returns the i-th windowed event, oldest first (0 <= i < Len).
func (s *PrefixState) At(i int) WindowEvent {
	return WindowEvent{&s.ring[(s.head+i)%len(s.ring)], s.t}
}

// HasCommunity reports whether any windowed event carries c.
func (s *PrefixState) HasCommunity(c bgp.Community) bool {
	for i := 0; i < s.n; i++ {
		if s.At(i).Communities().Has(c) {
			return true
		}
	}
	return false
}

// push folds ev into the window: age-based eviction first, then the
// count bound (overwriting the oldest when full). The new entry takes
// its references before the evicted ones are released, so a value the
// two share stays stored. An ingested event's path and community set
// are never written again, so the tables keep them instead of copies.
func (s *PrefixState) push(ev *feed.Event, horizon time.Duration) {
	e := s.t.compact(ev, true)
	cutoff := ev.Time.Add(-horizon)
	sec, nsec := cutoff.Unix(), int32(cutoff.Nanosecond())
	for s.n > 0 && s.ring[s.head].before(sec, nsec) {
		s.evictOldest()
	}
	if s.n == len(s.ring) {
		s.evictOldest()
	}
	s.ring[(s.head+s.n)%len(s.ring)] = e
	s.n++
	s.total++
}

// evictOldest drops the oldest entry and its references.
func (s *PrefixState) evictOldest() {
	s.t.release(&s.ring[s.head])
	s.head = (s.head + 1) % len(s.ring)
	s.n--
}
