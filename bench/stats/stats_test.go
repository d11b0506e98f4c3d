package stats

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestTopPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
	}{
		{0, 99, 0}, {19, 99, 0}, {20, 99, 50}, {40, 99, 75}, {100, 99, 90},
		{199, 99, 90}, {200, 99, 95}, {999, 99, 95}, {1000, 99, 99},
		{100000, 99, 99}, {100000, 100, 99.9}, {1000, 50, 50},
	} {
		if got := TopPercentile(c.n, c.limit); got != c.want {
			t.Errorf("TopPercentile(%d, %v) = %v, want %v", c.n, c.limit, got, c.want)
		}
	}
}

func TestSummarizeReportsSampleCountAndPercentileUsed(t *testing.T) {
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got := Summarize(xs, 99)
	if got.N != 400 || got.P50 != 200 || got.TailPct != 95 || got.Tail != 380 {
		t.Fatalf("400 samples: %+v, want n=400 p50=200 p95=380", got)
	}
	if got := Summarize(xs[:12], 99); got.TailPct != 100 || got.Tail != 12 {
		t.Fatalf("12 samples must fall back to the maximum, got %+v", got)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	q1, q3 := Quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q3 != 31 {
		t.Fatalf("quartiles %v %v, want 3.5 31", q1, q3)
	}
	if m := Median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median %v", m)
	}
}

// TestOpenLoopChargesAStallToTheProbesBehindIt is the coordinated-
// omission guard: a sink that stops accepting for 200 ms must delay, as
// seen from their due times, every probe scheduled during the stall —
// not just the one write that blocked — and the stall must show in the
// generator's own lag.
func TestOpenLoopChargesAStallToTheProbesBehindIt(t *testing.T) {
	const (
		interval   = time.Millisecond
		ticks      = 600
		probeEvery = 10 // ticks: one probe per 10 ms
		stall      = 200 * time.Millisecond
		stallTick  = 200
	)
	q := NewProbeQueues(1)
	var mu sync.Mutex
	accepted := map[int]bool{} // the fake sink: probe id -> visible
	fed, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for q.Outstanding() > 0 || !closed(fed) {
			if !q.Poll(5*time.Second, func(_ int, p Probe) bool {
				mu.Lock()
				defer mu.Unlock()
				return accepted[p.ID]
			}) {
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	lag, abandoned, err := OpenLoop(time.Now(), interval, ticks, time.Second, func(tick int, due time.Time) error {
		if tick == stallTick {
			time.Sleep(stall) // the sink's socket buffer is full
		}
		if tick%probeEvery == 0 {
			q.Push(0, Probe{ID: tick, Due: due})
			mu.Lock()
			accepted[tick] = true
			mu.Unlock()
		}
		return nil
	})
	close(fed)
	<-polled
	if err != nil || abandoned || len(lag) != ticks {
		t.Fatalf("open loop: %d ticks, abandoned %v, err %v", len(lag), abandoned, err)
	}
	lat, _, expired, _ := q.Drain()
	if expired != 0 || len(lat) != ticks/probeEvery {
		t.Fatalf("%d probes seen, %d expired, want %d seen", len(lat), expired, ticks/probeEvery)
	}
	// Probes due during the stall went out late; half the stall is a
	// threshold the catch-up burst cannot hide below.
	delayed := 0
	for _, ms := range lat {
		if ms >= Milliseconds(stall)/2 {
			delayed++
		}
	}
	if min := int(stall/2/interval) / probeEvery; delayed < min {
		t.Errorf("%d probes carry the stall, want at least %d (stall/probe interval, halved)", delayed, min)
	}
	if p99 := Percentile(lag, 99); p99 < Milliseconds(stall)/2 {
		t.Errorf("generator lag p99 %.1f ms hides a %v stall", p99, stall)
	}
	if p50 := Percentile(lag, 50); p50 > 20 {
		t.Errorf("generator lag p50 %.1f ms: the schedule itself is late", p50)
	}
}

// TestOpenLoopAbandonsARateTheSinkCannotTake: a sink ten times slower
// than the schedule must end the loop at maxLag, not run ten times long.
func TestOpenLoopAbandonsARateTheSinkCannotTake(t *testing.T) {
	start := time.Now()
	lag, abandoned, err := OpenLoop(start, time.Millisecond, 1000, 50*time.Millisecond, func(int, time.Time) error {
		time.Sleep(10 * time.Millisecond)
		return nil
	})
	if err != nil || !abandoned {
		t.Fatalf("abandoned %v, err %v; want the loop abandoned", abandoned, err)
	}
	if len(lag) >= 100 || time.Since(start) > time.Second {
		t.Fatalf("sent %d ticks in %v before giving up", len(lag), time.Since(start))
	}
}

func closed(c chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// TestSlowShardKeepsItsDelayToItself: shard 0 shows nothing for 150 ms
// while shard 1 shows everything at once.
func TestSlowShardKeepsItsDelayToItself(t *testing.T) {
	q := NewProbeQueues(2)
	start := time.Now()
	for i := 0; i < 20; i++ {
		q.Push(i%2, Probe{ID: i, Due: start})
	}
	slowUntil := start.Add(150 * time.Millisecond)
	for q.Outstanding() > 0 {
		q.Poll(5*time.Second, func(shard int, _ Probe) bool {
			return shard == 1 || time.Now().After(slowUntil)
		})
		time.Sleep(100 * time.Microsecond)
	}
	_, per, expired, maxQ := q.Drain()
	if expired != 0 || len(per[0]) != 10 || len(per[1]) != 10 || maxQ != 10 {
		t.Fatalf("per-shard samples %d/%d, expired %d, max queue %d", len(per[0]), len(per[1]), expired, maxQ)
	}
	if fast := Percentile(per[1], 100); fast > 50 {
		t.Errorf("fast shard's worst probe took %.1f ms: it waited behind the slow shard", fast)
	}
	if slow := Percentile(per[0], 0); slow < 150 || math.IsNaN(slow) {
		t.Errorf("slow shard's best probe took %.1f ms, want >= 150", slow)
	}
}

func TestProbesUnseenPastTheLimitCountAsFailed(t *testing.T) {
	q := NewProbeQueues(1)
	q.Push(0, Probe{ID: 1, Due: time.Now().Add(-time.Second)})
	if !q.Poll(500*time.Millisecond, func(int, Probe) bool { return false }) {
		t.Fatal("an expired probe must be retired")
	}
	lat, _, expired, _ := q.Drain()
	if len(lat) != 0 || expired != 1 {
		t.Fatalf("latencies %v, expired %d; want none, 1", lat, expired)
	}
}
