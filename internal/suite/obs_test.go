package suite

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"bgpworms/internal/obs"
	"bgpworms/internal/scenario"
)

// TestRunTraceAndProgress pins the observability contract for suite
// runs: the trace holds one root span per cell with an eval child, the
// progress callback fires once per cell, and the report bytes are
// identical to an uninstrumented run (instrumentation can never leak
// into suite_report.json).
func TestRunTraceAndProgress(t *testing.T) {
	s := tinySuite(t)
	bare, err := Run(s, Options{Workers: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	tr := obs.NewTrace("suite-test")
	var mu sync.Mutex
	var calls int
	traced, err := Run(s, Options{
		Workers: 2,
		SweepOpt: scenario.SweepOpt{
			Trace: tr,
			Progress: func(done, total int, c *scenario.Cell, d time.Duration) {
				mu.Lock()
				defer mu.Unlock()
				calls++
				if done < 1 || done > total || c == nil || c.Scenario == "" || d < 0 {
					t.Errorf("progress(done=%d, total=%d, c=%+v, d=%v)", done, total, c, d)
				}
			},
		},
	})
	if err != nil {
		t.Fatalf("Run traced: %v", err)
	}
	if !bytes.Equal(marshalReport(t, bare), marshalReport(t, traced)) {
		t.Fatal("trace/progress hooks changed the report bytes")
	}
	if calls != traced.Ran {
		t.Fatalf("progress calls=%d, cells=%d", calls, traced.Ran)
	}

	recs := tr.Records()
	roots, evals := 0, 0
	rootDur := map[int]int64{}
	var childSum int64
	for _, r := range recs {
		switch {
		case r.Parent == 0:
			if !strings.HasPrefix(r.Name, "cell ") {
				t.Fatalf("unexpected root span %q", r.Name)
			}
			roots++
			rootDur[r.ID] = r.DurUS
		case r.Name == "eval":
			evals++
			fallthrough
		default:
			if _, ok := rootDur[r.Parent]; !ok {
				// Records are in start order, so parents precede children.
				t.Fatalf("span %q parented to unknown id %d", r.Name, r.Parent)
			}
			childSum += r.DurUS
		}
	}
	if roots != traced.Ran {
		t.Fatalf("root spans=%d, cells=%d", roots, traced.Ran)
	}
	if evals != traced.Ran {
		t.Fatalf("eval spans=%d, cells=%d", evals, traced.Ran)
	}
	var rootSum int64
	for _, d := range rootDur {
		rootSum += d
	}
	if childSum > rootSum {
		t.Fatalf("child spans (%dus) exceed their roots (%dus)", childSum, rootSum)
	}
}
