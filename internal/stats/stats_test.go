package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if !approx(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Fatal("mean wrong")
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{5}) != 0 {
		t.Fatal("single-value stddev")
	}
	if !approx(StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}), 2.13808993529939) {
		t.Fatalf("stddev = %v", StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}))
	}
}

func TestMinMaxMedian(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if Min(xs) != 1 || Max(xs) != 5 {
		t.Fatal("min/max wrong")
	}
	if Quantile(xs, 0.5) != 3 {
		t.Fatalf("odd median = %v", Quantile(xs, 0.5))
	}
	if !approx(Quantile([]float64{1, 2, 3, 4}, 0.5), 2.5) {
		t.Fatal("even median wrong")
	}
	if Min(nil) != 0 || Max(nil) != 0 || Quantile(nil, 0.5) != 0 {
		t.Fatal("empty cases wrong")
	}
	// The median must not mutate its input.
	if xs[0] != 3 {
		t.Fatal("Quantile sorted the caller's slice")
	}
}

func TestCI95(t *testing.T) {
	if CI95([]float64{1}) != 0 {
		t.Fatal("single-value CI")
	}
	// n=3 (the paper's trial count): t(0.975, df=2) = 4.303.
	xs := []float64{10, 12, 14}
	want := 4.303 * StdDev(xs) / math.Sqrt(3)
	if !approx(CI95(xs), want) {
		t.Fatalf("CI95 = %v, want %v", CI95(xs), want)
	}
	// Large n falls back to the normal critical value.
	big := make([]float64, 100)
	for i := range big {
		big[i] = float64(i % 2)
	}
	want = 1.96 * StdDev(big) / 10
	if !approx(CI95(big), want) {
		t.Fatalf("large-n CI95 = %v, want %v", CI95(big), want)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if !strings.Contains(s.String(), "n=3") {
		t.Fatalf("String = %q", s.String())
	}
}

// TestDegenerateInputsAreTotal: every batch function must return a
// defined, finite value on empty and single-element inputs — the
// NaN-prone cases (0/0 means, √ of negative rounding residue, t-table
// lookups with df 0) that fleet aggregation with tiny populations hits.
func TestDegenerateInputsAreTotal(t *testing.T) {
	funcs := []struct {
		name string
		f    func([]float64) float64
	}{
		{"Mean", Mean},
		{"StdDev", StdDev},
		{"Min", Min},
		{"Max", Max},
		{"CI95", CI95},
		{"Quantile(0.5)", func(xs []float64) float64 { return Quantile(xs, 0.5) }},
	}
	cases := []struct {
		name string
		xs   []float64
		// wantSingle is the expected value for the single-element input
		// {7}: the element itself for location statistics, 0 for spread.
	}{
		{"nil", nil},
		{"empty", []float64{}},
		{"single", []float64{7}},
	}
	for _, c := range cases {
		for _, fn := range funcs {
			got := fn.f(c.xs)
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Errorf("%s(%s) = %v, want finite", fn.name, c.name, got)
			}
			if len(c.xs) == 0 && got != 0 {
				t.Errorf("%s(%s) = %v, want 0", fn.name, c.name, got)
			}
		}
	}
	// Single-element: location statistics return the element, spread 0.
	one := []float64{7}
	for _, fn := range []struct {
		name string
		got  float64
		want float64
	}{
		{"Mean", Mean(one), 7},
		{"Min", Min(one), 7},
		{"Max", Max(one), 7},
		{"Quantile", Quantile(one, 0.95), 7},
		{"StdDev", StdDev(one), 0},
		{"CI95", CI95(one), 0},
	} {
		if fn.got != fn.want {
			t.Errorf("%s({7}) = %v, want %v", fn.name, fn.got, fn.want)
		}
	}
	// Summarize of the degenerate inputs never formats a NaN.
	for _, xs := range [][]float64{nil, {}, one} {
		s := Summarize(xs)
		if strings.Contains(s.String(), "NaN") {
			t.Errorf("Summarize(%v).String() = %q contains NaN", xs, s.String())
		}
	}
	if s := Summarize(one); s.N != 1 || s.Mean != 7 || s.Min != 7 || s.Max != 7 || s.Std != 0 || s.CI95 != 0 {
		t.Errorf("Summarize({7}) = %+v", s)
	}
}

// Property: Min ≤ median (Quantile 0.5) ≤ Max and Min ≤ Mean ≤ Max.
func TestPropertyOrderStatistics(t *testing.T) {
	prop := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		mn, mx, md, mean := Min(xs), Max(xs), Quantile(xs, 0.5), Mean(xs)
		return mn <= md && md <= mx && mn <= mean+1e-9 && mean <= mx+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: StdDev of a constant series is zero; shifting data leaves
// StdDev unchanged.
func TestPropertyStdDevShiftInvariant(t *testing.T) {
	prop := func(raw []int16, shift int16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			ys[i] = float64(v) + float64(shift)
		}
		return math.Abs(StdDev(xs)-StdDev(ys)) < 1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
