package eval

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFSortedAndNormalized(t *testing.T) {
	xs, ys := CDF([]float64{3, 1, 2})
	if xs[0] != 1 || xs[1] != 2 || xs[2] != 3 {
		t.Fatalf("xs = %v", xs)
	}
	if ys[2] != 1 {
		t.Fatalf("ys = %v", ys)
	}
	if math.Abs(ys[0]-1.0/3) > 1e-12 {
		t.Fatalf("ys[0] = %g", ys[0])
	}
}

func TestAUCEqualsMaxMinusMean(t *testing.T) {
	vals := []float64{2000, 4000, 6000}
	got := AUC(vals, 10_000)
	want := 10_000 - 4000.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("AUC = %g, want %g", got, want)
	}
}

func TestAUCClipsOutOfRange(t *testing.T) {
	got := AUC([]float64{-5, 20_000}, 10_000)
	want := 10_000 - (0+10_000)/2.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("AUC = %g, want %g", got, want)
	}
}

func TestAUCEmptyNaN(t *testing.T) {
	if !math.IsNaN(AUC(nil, 10)) {
		t.Fatal("empty AUC should be NaN")
	}
}

func TestImprovementSign(t *testing.T) {
	// Method with smaller AUC improves (positive).
	if Improvement(2000, 1000) != 0.5 {
		t.Fatal("improvement wrong")
	}
	if Improvement(1000, 2000) != -1 {
		t.Fatal("regression wrong")
	}
	if Improvement(0, 5) != 0 {
		t.Fatal("zero reference")
	}
}

func TestPaperTableIConsistency(t *testing.T) {
	// The paper's Table I: Metis AUC 1973, Coarsen+Metis 1082 → 45%.
	imp := Improvement(1973, 1082)
	if math.Abs(imp-0.45) > 0.005 {
		t.Fatalf("paper improvement arithmetic mismatch: %g", imp)
	}
}

func TestMeanStd(t *testing.T) {
	vals := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(vals) != 5 {
		t.Fatal("mean")
	}
	if math.Abs(Std(vals)-2) > 1e-12 {
		t.Fatalf("std = %g", Std(vals))
	}
}

func TestQuantile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	if Quantile(vals, 0) != 1 || Quantile(vals, 1) != 5 {
		t.Fatal("extremes")
	}
	if Quantile(vals, 0.5) != 3 {
		t.Fatal("median")
	}
	if Quantile(vals, 0.25) != 2 {
		t.Fatal("q1")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile")
	}
}

func TestBoxStats(t *testing.T) {
	b := Box([]float64{1, 2, 3, 4, 100})
	if b.Min != 1 || b.Max != 100 || b.Median != 3 || b.N != 5 {
		t.Fatalf("box = %+v", b)
	}
}

func TestIntHistogram(t *testing.T) {
	h := IntHistogram([]int{1, 1, 3, 99}, 0, 10)
	if h[1] != 2 || h[3] != 1 || h[10] != 1 {
		t.Fatalf("hist = %v", h)
	}
}

func TestReportString(t *testing.T) {
	r := &Report{
		Title: "test",
		MaxX:  1000,
		Rows: []Series{
			{Name: "ref", Values: []float64{500}},
			{Name: "better", Values: []float64{750}},
		},
	}
	s := r.String()
	if !strings.Contains(s, "ref") || !strings.Contains(s, "better") {
		t.Fatalf("report: %s", s)
	}
	if !strings.Contains(s, "+50%") {
		t.Fatalf("expected +50%% improvement, got: %s", s)
	}
}

func TestCDFTableFormat(t *testing.T) {
	out := CDFTable([]Series{{Name: "a", Values: []float64{1, 2}}})
	if !strings.Contains(out, "# series: a") || !strings.Contains(out, "2.0 1.0000") {
		t.Fatalf("cdf table:\n%s", out)
	}
}

// Property: AUC is monotone — uniformly higher throughputs give smaller AUC.
func TestQuickAUCMonotone(t *testing.T) {
	f := func(seed uint16) bool {
		vals := []float64{float64(seed%1000) + 100, float64(seed%777) + 50}
		shifted := []float64{vals[0] + 10, vals[1] + 10}
		return AUC(shifted, 10_000) < AUC(vals, 10_000)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
