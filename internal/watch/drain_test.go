package watch_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"time"

	"bgpworms/internal/gen"
	"bgpworms/internal/watch"
)

// churnMRT is the churn feed as the wire carries it: the first n BGP4MP
// records of the tiny world's busiest collector archive.
func churnMRT(t testing.TB, n int) []byte {
	t.Helper()
	w, err := gen.Build(gen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.RunChurn(); err != nil {
		t.Fatal(err)
	}
	var raw []byte
	for _, c := range w.Collectors {
		var buf bytes.Buffer
		if _, err := c.WriteUpdatesMRT(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() > len(raw) {
			raw = buf.Bytes()
		}
	}
	// MRT common header: 12 bytes, body length in the last four.
	end := 0
	for i := 0; i < n; i++ {
		if end+12 > len(raw) {
			t.Fatalf("archive holds only %d records, want %d", i, n)
		}
		end += 12 + int(binary.BigEndian.Uint32(raw[end+8:]))
	}
	return raw[:end]
}

// streamPipe runs StreamMRT over a pipe wrapped by DrainReader, the way
// wormwatchd reads a feed connection. The returned wait closes the pipe
// and returns the delivered event count.
func streamPipe(t testing.TB, e *watch.Engine) (w *io.PipeWriter, wait func() int) {
	t.Helper()
	pr, pw := io.Pipe()
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := watch.StreamMRT(watch.DrainReader(pr, e.Dispatch), "mrt:feed", e.Ingest)
		done <- result{n, err}
	}()
	return pw, func() int {
		pw.Close()
		r := <-done
		if r.err != nil {
			t.Fatalf("stream: %v", r.err)
		}
		return r.n
	}
}

// TestStreamDispatchesWhenFeedDrains pins the latency floor away: one
// record on a connection that then goes quiet must be processed without
// a Flush, a heartbeat or 127 more events for its shard. Before the
// drain hook it sat in Engine.pending for as long as the feed stayed
// quiet.
func TestStreamDispatchesWhenFeedDrains(t *testing.T) {
	raw := churnMRT(t, 1)
	e := watch.NewEngine(watch.Config{Shards: 2})
	defer e.Close()
	pw, wait := streamPipe(t, e)
	if _, err := pw.Write(raw); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Processed < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("event still pending with the feed idle: %+v", e.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if n := wait(); n < 1 {
		t.Fatalf("streamed %d events, want at least 1", n)
	}
}

// TestDrainDispatchUnobservable: a burst that arrives in one write is
// cut into runs wherever the decoder's buffer empties; the alert set
// must equal a plain StreamMRT of the same bytes.
func TestDrainDispatchUnobservable(t *testing.T) {
	raw := churnMRT(t, 300)
	ref := watch.NewEngine(watch.Config{Shards: 2})
	defer ref.Close()
	want, err := watch.StreamMRT(bytes.NewReader(raw), "mrt:feed", ref.Ingest)
	if err != nil {
		t.Fatal(err)
	}
	ref.Flush()

	e := watch.NewEngine(watch.Config{Shards: 2})
	defer e.Close()
	pw, wait := streamPipe(t, e)
	if _, err := pw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if got := wait(); got != want {
		t.Fatalf("streamed %d events, plain ingest %d", got, want)
	}
	e.Flush()
	if got, want := alertsJSON(t, e), alertsJSON(t, ref); !bytes.Equal(got, want) {
		t.Fatalf("alert set differs from plain StreamMRT (%d vs %d bytes)", len(got), len(want))
	}
	if len(ref.Alerts()) == 0 {
		t.Fatal("feed raised no alerts; the comparison is vacuous")
	}
}

// TestDispatchIdleAllocatesNothing guards the drain hook's idle cost: it
// runs once per socket read, almost always with nothing pending.
func TestDispatchIdleAllocatesNothing(t *testing.T) {
	e := watch.NewEngine(watch.Config{Shards: 4})
	defer e.Close()
	for _, ev := range churnEvents(t)[:50] {
		e.Ingest(ev)
	}
	e.Flush()
	if avg := testing.AllocsPerRun(1000, e.Dispatch); avg != 0 {
		t.Fatalf("idle Dispatch allocates %.1f objects per call, want 0", avg)
	}
}
