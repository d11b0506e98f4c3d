package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	if e.Len() != 4 {
		t.Fatalf("Len=%d", e.Len())
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {99, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("At(%v)=%v want %v", c.x, got, c.want)
		}
	}
}

func TestECDFQuantileAndMean(t *testing.T) {
	e := NewECDF([]float64{10, 20, 30, 40})
	if q := e.Quantile(0.5); q != 20 {
		t.Errorf("median=%v", q)
	}
	if q := e.Quantile(0); q != 10 {
		t.Errorf("min=%v", q)
	}
	if q := e.Quantile(1); q != 40 {
		t.Errorf("max=%v", q)
	}
	if m := e.Mean(); m != 25 {
		t.Errorf("mean=%v", m)
	}
	empty := NewECDF(nil)
	if !math.IsNaN(empty.Quantile(0.5)) || !math.IsNaN(empty.Mean()) || empty.At(1) != 0 {
		t.Error("empty ECDF misbehaves")
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{1, 1, 2, 5})
	// The polyline a figure plots: P[X<=x] at each distinct sample value,
	// flat between them.
	for _, pt := range []struct{ x, y float64 }{{0.5, 0}, {1, 0.5}, {1.5, 0.5}, {2, 0.75}, {5, 1}, {9, 1}} {
		if got := e.At(pt.x); got != pt.y {
			t.Fatalf("At(%v)=%v want %v", pt.x, got, pt.y)
		}
	}
}

// Property: ECDF is monotone nondecreasing and bounded by [0,1].
func TestProperty_ECDFMonotone(t *testing.T) {
	f := func(vals []float64, probe []float64) bool {
		for i := range vals {
			if math.IsNaN(vals[i]) || math.IsInf(vals[i], 0) {
				vals[i] = 0
			}
		}
		e := NewECDF(vals)
		last := -1.0
		for _, p := range probe {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				continue
			}
			_ = p
		}
		// probe on sorted copies of vals
		for _, x := range e.sorted {
			y := e.At(x)
			if y < last-1e-12 || y < 0 || y > 1 {
				return false
			}
			last = y
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLogBin2D(t *testing.T) {
	h := NewLogBin2D(1)
	h.Add(0, 0)    // cell (0,0)
	h.Add(0, 0)    // same
	h.Add(9, 0)    // log10(10)=1 → cell (1,0)
	h.Add(99, 999) // (2,3) — log10(100)=2, log10(1000)=3
	bins := h.Bins()
	if len(bins) != 3 {
		t.Fatalf("bins=%v", bins)
	}
	if bins[0].Count != 2 || bins[0].X != 0 || bins[0].Y != 0 {
		t.Fatalf("bin0=%v", bins[0])
	}
	if bins[2].X != 2 || bins[2].Y != 3 {
		t.Fatalf("bin2=%v", bins[2])
	}
	// Default resolution guard.
	if NewLogBin2D(0).CellsPerDecade <= 0 {
		t.Fatal("default resolution not applied")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Source", "Msgs", "Frac")
	tb.Row("RIS", 123, 0.5)
	tb.Row("RV", 45678, 0.25)
	s := tb.String()
	if !strings.Contains(s, "RIS") || !strings.Contains(s, "45678") || !strings.Contains(s, "0.25") {
		t.Fatalf("table:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d", len(lines))
	}
	// Header columns align with data columns.
	if !strings.HasPrefix(lines[0], "Source") {
		t.Fatalf("header=%q", lines[0])
	}
}

func TestPct(t *testing.T) {
	if Pct(1, 4) != "25.0%" {
		t.Fatalf("Pct=%s", Pct(1, 4))
	}
	if Pct(1, 0) != "n/a" {
		t.Fatal("div by zero")
	}
}
