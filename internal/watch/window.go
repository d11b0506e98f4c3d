package watch

import (
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
	ring  []feed.Event
	head  int // index of the oldest event
	n     int
	total uint64
}

func newPrefixState(capacity int) *PrefixState {
	return &PrefixState{ring: make([]feed.Event, capacity)}
}

// Len is the current window occupancy.
func (s *PrefixState) Len() int { return s.n }

// At returns the i-th windowed event, oldest first (0 <= i < Len).
func (s *PrefixState) At(i int) *feed.Event {
	return &s.ring[(s.head+i)%len(s.ring)]
}

// HasCommunity reports whether any windowed event carries c.
func (s *PrefixState) HasCommunity(c bgp.Community) bool {
	for i := 0; i < s.n; i++ {
		if s.At(i).Communities.Has(c) {
			return true
		}
	}
	return false
}

// push folds ev into the window: age-based eviction first, then the
// count bound (overwriting the oldest when full).
func (s *PrefixState) push(ev *feed.Event, horizon time.Duration) {
	cutoff := ev.Time.Add(-horizon)
	for s.n > 0 && s.ring[s.head].Time.Before(cutoff) {
		s.ring[s.head] = feed.Event{}
		s.head = (s.head + 1) % len(s.ring)
		s.n--
	}
	if s.n == len(s.ring) {
		s.head = (s.head + 1) % len(s.ring)
		s.n--
	}
	s.ring[(s.head+s.n)%len(s.ring)] = *ev
	s.n++
	s.total++
}
