// Package eval provides the paper's evaluation statistics — throughput
// CDFs, their Area-Under-Curve summary (smaller is better), quantile/
// boxplot summaries, and histograms — plus the experiment harness that
// regenerates every table and figure of the evaluation section
// (experiments.go).
package eval

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Series is one labelled set of per-graph throughputs (tuples/second).
type Series struct {
	Name   string
	Values []float64
}

// CDF returns the empirical distribution as sorted x-values and their
// cumulative probabilities.
func CDF(values []float64) (xs, ys []float64) {
	xs = append([]float64(nil), values...)
	sort.Float64s(xs)
	n := float64(len(xs))
	ys = make([]float64, len(xs))
	for i := range xs {
		ys[i] = float64(i+1) / n
	}
	return xs, ys
}

// AUC computes the area under the empirical CDF over [0, maxX]. With all
// values in [0, maxX], this equals maxX − mean(values): a method whose
// throughputs are higher (CDF skewed right) scores a smaller AUC, matching
// the paper's metric.
func AUC(values []float64, maxX float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var mean float64
	for _, v := range values {
		if v > maxX {
			v = maxX
		}
		if v < 0 {
			v = 0
		}
		mean += v
	}
	mean /= float64(len(values))
	return maxX - mean
}

// Improvement returns the paper's "Imp. wrt Metis": the relative AUC
// reduction of a method versus the reference (positive = better).
func Improvement(ref, method float64) float64 {
	if ref == 0 {
		return 0
	}
	return (ref - method) / ref
}

// Mean returns the arithmetic mean.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// Std returns the population standard deviation.
func Std(values []float64) float64 {
	m := Mean(values)
	var v float64
	for _, x := range values {
		v += (x - m) * (x - m)
	}
	return math.Sqrt(v / float64(len(values)))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation.
func Quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// BoxStats is a five-number summary for the Fig. 8 boxplots.
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
	N                        int
}

// Box computes the five-number summary.
func Box(values []float64) BoxStats {
	return BoxStats{
		Min:    Quantile(values, 0),
		Q1:     Quantile(values, 0.25),
		Median: Quantile(values, 0.5),
		Q3:     Quantile(values, 0.75),
		Max:    Quantile(values, 1),
		N:      len(values),
	}
}

// IntHistogram counts integer values (e.g., used-device counts) into
// per-value buckets over [lo, hi].
func IntHistogram(values []int, lo, hi int) map[int]int {
	out := make(map[int]int)
	for _, v := range values {
		if v < lo {
			v = lo
		}
		if v > hi {
			v = hi
		}
		out[v]++
	}
	return out
}

// Report formats a comparison of series: AUC, mean throughput, and
// improvement relative to the first (reference) series.
type Report struct {
	Title string
	MaxX  float64 // x-axis upper bound (the source tuple rate)
	Rows  []Series
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s (AUC over [0, %.0f]; smaller is better) ==\n", r.Title, r.MaxX)
	if len(r.Rows) == 0 {
		return b.String()
	}
	ref := AUC(r.Rows[0].Values, r.MaxX)
	fmt.Fprintf(&b, "%-34s %10s %12s %8s\n", "method", "AUC", "mean-thr", "imp.")
	for i, s := range r.Rows {
		auc := AUC(s.Values, r.MaxX)
		imp := ""
		if i > 0 {
			imp = fmt.Sprintf("%+.0f%%", 100*Improvement(ref, auc))
		}
		fmt.Fprintf(&b, "%-34s %10.0f %12.0f %8s\n", s.Name, auc, Mean(s.Values), imp)
	}
	return b.String()
}

// CDFTable renders per-series CDF points in a plot-friendly text format
// (one "x y" pair per line, series separated by headers).
func CDFTable(rows []Series) string {
	var b strings.Builder
	for _, s := range rows {
		fmt.Fprintf(&b, "# series: %s\n", s.Name)
		xs, ys := CDF(s.Values)
		for i := range xs {
			fmt.Fprintf(&b, "%.1f %.4f\n", xs[i], ys[i])
		}
	}
	return b.String()
}
