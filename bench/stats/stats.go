// Package stats holds the benchmark's arithmetic: order statistics
// with the sample-count rule for tail percentiles, and the open-loop
// accounting (a schedule that never waits for the system under test,
// probes timed from when they were due) the paced workload is built on.
package stats

import (
	"math"
	"sort"
	"sync"
	"time"
)

// ladder is the set of percentiles a timing may be reported at.
var ladder = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// TopPercentile is the highest ladder percentile, no higher than limit,
// that n samples support: at least minBeyond samples lie beyond it. It
// is 0 when even the median is unsupported.
func TopPercentile(n int, limit float64) float64 {
	top := 0.0
	for _, p := range ladder {
		if p <= limit && float64(n)*(100-p)/100 >= minBeyond {
			top = p
		}
	}
	return top
}

// Percentile is the nearest-rank p-th percentile of xs (NaN when empty).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// Median is the middle value, or the mean of the middle two.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// Quartiles returns Q1 and Q3 by the exclusive method Python's
// statistics.quantiles(xs, n=4) uses, so spreads computed here match
// the ones the benchmark contract is judged by. It needs two samples.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		n := len(s)
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// Tail is a latency distribution's report: the median, and the highest
// supported percentile with the sample count that supports it.
type Tail struct {
	N       int     `json:"samples"`
	P50     float64 `json:"p50"`
	TailPct float64 `json:"tail_percentile"`
	Tail    float64 `json:"tail"`
}

// Summarize reports xs with the tail capped at limit (99 for a "p99").
// With too few samples for any tail, Tail repeats the maximum and
// TailPct is 100, so a short run never understates its worst case.
func Summarize(xs []float64, limit float64) Tail {
	t := Tail{N: len(xs), P50: Percentile(xs, 50)}
	if p := TopPercentile(len(xs), limit); p > 50 {
		t.TailPct, t.Tail = p, Percentile(xs, p)
	} else {
		t.TailPct, t.Tail = 100, Percentile(xs, 100)
	}
	return t
}

// Milliseconds converts a duration to float milliseconds.
func Milliseconds(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// OpenLoop calls send for ticks 0..ticks-1, tick i no earlier than
// start+i*interval and never skipped: when send blocks, the ticks behind
// it go out late, back to back, each still stamped with the time it was
// due. It returns how late each tick started, in milliseconds — the
// generator's own lag, which a stalled sink shows up in. A tick more
// than maxLag late abandons the loop (abandoned reports it): the rate is
// beyond the sink, and pressing on would only turn the backlog into
// operations that miss every limit.
func OpenLoop(start time.Time, interval time.Duration, ticks int, maxLag time.Duration, send func(tick int, due time.Time) error) (lagMS []float64, abandoned bool, err error) {
	lagMS = make([]float64, 0, ticks)
	for i := 0; i < ticks; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lag := time.Since(due)
		if lag > maxLag {
			return lagMS, true, nil
		}
		lagMS = append(lagMS, Milliseconds(lag))
		if err := send(i, due); err != nil {
			return lagMS, false, err
		}
	}
	return lagMS, false, nil
}

// Probe is one marker event awaiting visibility.
type Probe struct {
	ID  int
	Due time.Time
}

// ProbeQueues tracks outstanding probes, one FIFO per owner shard, so a
// shard that is slow to show its probes delays only its own samples.
// The generator pushes; one poller goroutine calls Poll.
type ProbeQueues struct {
	mu     sync.Mutex
	queues [][]Probe
	// LatencyMS collects, per shard, due→visible latencies in the order
	// probes became visible.
	latency [][]float64
	expired int
	maxLen  int
}

// NewProbeQueues makes queues for n owner shards.
func NewProbeQueues(n int) *ProbeQueues {
	return &ProbeQueues{queues: make([][]Probe, n), latency: make([][]float64, n)}
}

// Push enqueues a probe the moment it is written to the feed.
func (q *ProbeQueues) Push(shard int, p Probe) {
	q.mu.Lock()
	q.queues[shard] = append(q.queues[shard], p)
	if n := len(q.queues[shard]); n > q.maxLen {
		q.maxLen = n
	}
	q.mu.Unlock()
}

// Poll asks visible about the oldest outstanding probe of every shard
// once. A visible probe is timed from its due time and retired; one
// outstanding longer than limit is retired as failed. It reports
// whether any probe was retired, so the caller can pause when idle.
func (q *ProbeQueues) Poll(limit time.Duration, visible func(shard int, p Probe) bool) bool {
	progress := false
	for shard := range q.queues {
		q.mu.Lock()
		if len(q.queues[shard]) == 0 {
			q.mu.Unlock()
			continue
		}
		head := q.queues[shard][0]
		q.mu.Unlock()
		ok := visible(shard, head)
		age := time.Since(head.Due)
		if !ok && age < limit {
			continue
		}
		q.mu.Lock()
		q.queues[shard] = q.queues[shard][1:]
		if ok {
			q.latency[shard] = append(q.latency[shard], Milliseconds(age))
		} else {
			q.expired++
		}
		q.mu.Unlock()
		progress = true
	}
	return progress
}

// Outstanding is the number of probes not yet retired.
func (q *ProbeQueues) Outstanding() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, s := range q.queues {
		n += len(s)
	}
	return n
}

// Drain returns the latencies gathered since the last Drain (all shards
// pooled, and per shard), the probes that expired unseen, and the
// longest any queue has been; it resets all three.
func (q *ProbeQueues) Drain() (pooled []float64, perShard [][]float64, expired, maxQueue int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	perShard = q.latency
	q.latency = make([][]float64, len(q.queues))
	for _, s := range perShard {
		pooled = append(pooled, s...)
	}
	expired, maxQueue = q.expired, q.maxLen
	q.expired, q.maxLen = 0, 0
	return pooled, perShard, expired, maxQueue
}
