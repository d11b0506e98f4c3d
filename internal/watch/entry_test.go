package watch

import (
	"testing"
	"unsafe"
)

// TestEntryIsCompact pins the ring's element: a window holds 32 of
// them per tracked prefix, so the entry is the monitor's largest piece
// of state. It is 80 bytes, against 144 for the feed.Event it
// replaced; a field that grows it past 80 fails here.
func TestEntryIsCompact(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got > 80 {
		t.Fatalf("a window entry is %d bytes, want at most 80", got)
	}
}
