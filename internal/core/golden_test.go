package core_test

// Golden-file regression tests for the analysis figures: the
// paper-facing numbers (Table 1/2, Fig 3-6) computed from a pinned tiny
// world are serialized to testdata/golden/*.json and compared byte for
// byte. Scale and engine work cannot silently shift the reproduction's
// numbers: any change here must be reviewed and re-recorded with
//
//	go test ./internal/core -run TestGolden -update
//
// The files also pin the engine's canonical delivery order, which the
// collector archives depend on.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"bgpworms/internal/core"
	"bgpworms/internal/gen"
	"bgpworms/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the golden files with current results")

var (
	goldenOnce sync.Once
	goldenA    *core.Analysis
	goldenErr  error
)

// goldenFixture analyses the pinned tiny world once; every golden file
// reads fields of the same Analyze result.
func goldenFixture(t *testing.T) *core.Analysis {
	t.Helper()
	goldenOnce.Do(func() {
		p := gen.Tiny()
		w, err := gen.Build(p)
		if err != nil {
			goldenErr = err
			return
		}
		if _, err := w.RunChurn(); err != nil {
			goldenErr = err
			return
		}
		goldenA = core.NewPipeline(0).Analyze(core.FromCollectors(w.Collectors), w.Registry.All())
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenA
}

// ecdfSummary pins a distribution by its size and shape statistics.
type ecdfSummary struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	P25  float64 `json:"p25"`
	P50  float64 `json:"p50"`
	P75  float64 `json:"p75"`
	P90  float64 `json:"p90"`
	Max  float64 `json:"max"`
}

func summarizeECDF(e *stats.ECDF) ecdfSummary {
	if e == nil || e.Len() == 0 {
		return ecdfSummary{}
	}
	return ecdfSummary{
		N:    e.Len(),
		Mean: e.Mean(),
		P25:  e.Quantile(0.25),
		P50:  e.Quantile(0.50),
		P75:  e.Quantile(0.75),
		P90:  e.Quantile(0.90),
		Max:  e.Quantile(1),
	}
}

func checkGolden(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to record): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from the recorded paper numbers.\ngot:\n%s\nwant:\n%s\nIf the change is intended, re-record with -update.", name, got, want)
	}
}

func TestGoldenTable1(t *testing.T) {
	checkGolden(t, "table1.json", goldenFixture(t).Table1)
}

func TestGoldenTable2(t *testing.T) {
	checkGolden(t, "table2.json", goldenFixture(t).Table2)
}

func TestGoldenFig3Evolution(t *testing.T) {
	pipe := core.NewPipeline(0)
	pts, err := gen.Evolution(gen.Tiny(), []int{2010, 2014, 2018}, func(w *gen.Internet) (int, int, int, int) {
		return pipe.EvolutionMetrics(core.FromCollectors(w.Collectors))
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig3.json", pts)
}

func TestGoldenFig4(t *testing.T) {
	a := goldenFixture(t)
	checkGolden(t, "fig4.json", map[string]any{
		"collector_fractions":    a.Fig4a,
		"overall_share":          a.Share,
		"communities_per_update": summarizeECDF(a.Fig4b.CommunitiesPerUpdate),
		"ases_per_update":        summarizeECDF(a.Fig4b.ASesPerUpdate),
	})
}

func TestGoldenFig5(t *testing.T) {
	a := goldenFixture(t)
	all, bh := a.Prop.Figure5a()
	byLen := map[int]ecdfSummary{}
	for l, e := range a.Prop.Figure5b(3, 10) {
		byLen[l] = summarizeECDF(e)
	}
	off, on := a.Prop.Figure5c(10)
	checkGolden(t, "fig5.json", map[string]any{
		"distance_all":        summarizeECDF(all),
		"distance_blackhole":  summarizeECDF(bh),
		"relative_by_pathlen": byLen,
		"top_values_offpath":  off,
		"top_values_onpath":   on,
		"transit":             a.Transit,
	})
}

func TestGoldenFig6(t *testing.T) {
	a := goldenFixture(t)
	checkGolden(t, "fig6.json", map[string]any{
		"summary": a.Filter.Summarize(10),
		"hexbin":  a.Filter.Hexbin(1, 4),
	})
}
