// Package stats provides the small statistical toolkit the evaluation
// needs: means, standard deviations, confidence half-widths for the
// three-trial averages the paper reports, simple aggregation over
// repeated simulation runs, memory-bounded streaming estimators
// (Welford mean/variance, P² quantiles) for long series, and the exactly
// mergeable Mergeable for fleet-scale populations split across shards.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator), or 0
// for fewer than two values.
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// Min returns the minimum, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// t95 holds two-sided 95% Student-t critical values for small samples
// (df 1..30); beyond that the normal 1.96 is used.
var t95 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// critT95 returns the two-sided 95% critical value for a mean estimated
// from n observations (Student-t for small n, normal beyond df 30).
func critT95(n int) float64 {
	if df := n - 1; df >= 1 && df <= len(t95) {
		return t95[df-1]
	}
	return 1.96
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// (Student-t), or 0 for fewer than two values. Like every batch function
// in this package, it is total: empty and single-element inputs yield a
// defined 0, never NaN.
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	return critT95(n) * StdDev(xs) / math.Sqrt(float64(n))
}

// Summary bundles the statistics of one metric across trials.
type Summary struct {
	N    int
	Mean float64
	Std  float64
	Min  float64
	Max  float64
	CI95 float64
}

// Summarize computes a Summary of the values. It is total on degenerate
// inputs: an empty slice summarizes to the zero Summary and a single
// element to {N: 1, Mean: x, Min: x, Max: x} with zero spread — callers
// formatting a Summary never see NaN from the input's length alone.
func Summarize(xs []float64) Summary {
	return Summary{
		N:    len(xs),
		Mean: Mean(xs),
		Std:  StdDev(xs),
		Min:  Min(xs),
		Max:  Max(xs),
		CI95: CI95(xs),
	}
}

// String formats as "mean ± ci95 [min, max] (n)".
func (s Summary) String() string {
	return fmt.Sprintf("%.3f ± %.3f [%.3f, %.3f] (n=%d)", s.Mean, s.CI95, s.Min, s.Max, s.N)
}
