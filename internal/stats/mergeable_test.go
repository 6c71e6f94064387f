package stats

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"
)

// mergeableInputs draws n values mixing signs, zeros, integers, tiny and
// large magnitudes — the shapes fleet metrics take (savings ratios can
// be negative, delays are often 0, energies run to 10^4).
func mergeableInputs(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch rng.Intn(6) {
		case 0:
			xs[i] = 0
		case 1:
			xs[i] = float64(rng.Intn(40) - 10)
		case 2:
			xs[i] = rng.NormFloat64() * 1e-6
		case 3:
			xs[i] = rng.ExpFloat64() * 3e4
		default:
			xs[i] = rng.NormFloat64()
		}
	}
	return xs
}

// partitionMerge folds xs into random parts and merges their encoded
// states in a random order.
func partitionMerge(rng *rand.Rand, xs []float64) *Mergeable {
	perm := rng.Perm(len(xs))
	var parts []*Mergeable
	for lo := 0; lo < len(xs); {
		hi := min(len(xs), lo+1+rng.Intn(len(xs)))
		m := &Mergeable{}
		for _, i := range perm[lo:hi] {
			m.Add(xs[i])
		}
		parts = append(parts, m)
		lo = hi
	}
	out := &Mergeable{}
	for _, i := range rng.Perm(len(parts)) {
		if _, rest, err := MergeBinary(parts[i].AppendBinary(nil), out); err != nil || len(rest) != 0 {
			panic("state written by AppendBinary did not merge back")
		}
	}
	return out
}

// bigSum is the exact reference: Σx and Σx² in arbitrary precision.
func bigSum(xs []float64) (sum, sq *big.Float) {
	sum = new(big.Float).SetPrec(4096)
	sq = new(big.Float).SetPrec(4096)
	for _, x := range xs {
		bx := new(big.Float).SetPrec(4096).SetFloat64(x)
		sum.Add(sum, bx)
		sq.Add(sq, bx.Mul(bx, bx))
	}
	return sum, sq
}

func longValue(s *longSum) *big.Float {
	v, exp := s.value()
	f := new(big.Float).SetInt(v)
	return f.SetMantExp(f, exp)
}

// TestMergeableExactUnderPartitionAndPermutation: under any permutation
// and partition, the exact sums equal a math/big reference and the
// encoded state is identical byte for byte — including n = 1.
func TestMergeableExactUnderPartitionAndPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		if trial < 10 {
			n = 1 + trial%2
		}
		xs := mergeableInputs(rng, n)
		ref := &Mergeable{}
		for _, x := range xs {
			ref.Add(x)
		}
		wantSum, wantSq := bigSum(xs)
		want := ref.AppendBinary(nil)
		for rep := 0; rep < 3; rep++ {
			m := partitionMerge(rng, xs)
			if longValue(&m.sum).Cmp(wantSum) != 0 || longValue(&m.sumSq).Cmp(wantSq) != 0 {
				t.Fatalf("trial %d: exact sums diverged from the math/big reference", trial)
			}
			if got := m.AppendBinary(nil); !bytes.Equal(got, want) {
				t.Fatalf("trial %d: merged state differs from the sequential fold", trial)
			}
			if m.Summary() != ref.Summary() {
				t.Fatalf("trial %d: summary %+v, want %+v", trial, m.Summary(), ref.Summary())
			}
		}
		// The mean is the exact sum over n rounded once.
		wantMean, _ := new(big.Float).SetPrec(53).Quo(wantSum, big.NewFloat(float64(n))).Float64()
		if got := ref.Summary().Mean; got != wantMean {
			t.Fatalf("trial %d: mean %v, want %v", trial, got, wantMean)
		}
		if s, batch := ref.Summary(), Summarize(xs); math.Abs(s.Std-batch.Std) > 1e-9*(1+batch.Std) {
			t.Fatalf("trial %d: std %v, batch %v", trial, s.Std, batch.Std)
		}
	}
}

// TestMergeableQuantileWithinAlpha: every sketch quantile lies within
// relative error Alpha of the nearest-rank order statistic.
func TestMergeableQuantileWithinAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		xs := mergeableInputs(rng, 1+rng.Intn(400))
		m := partitionMerge(rng, xs)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, p := range []float64{0, 0.01, 0.25, 0.5, 0.95, 0.99, 1} {
			rank := min(max(int(math.Ceil(p*float64(len(xs)))), 1), len(xs))
			want := sorted[rank-1]
			if got := m.Quantile(p); math.Abs(got-want) > Alpha*math.Abs(want) {
				t.Fatalf("trial %d: P%v = %v, order statistic %v (n=%d)", trial, 100*p, got, want, len(xs))
			}
		}
		if s := m.Summary(); s.Min != sorted[0] || s.Max != sorted[len(sorted)-1] {
			t.Fatalf("trial %d: range [%v, %v], want [%v, %v]", trial, s.Min, s.Max, sorted[0], sorted[len(sorted)-1])
		}
	}
}

// TestMergeableDegenerate pins the edge states: empty, one value, zeros
// only, and values outside the domain.
func TestMergeableDegenerate(t *testing.T) {
	var empty Mergeable
	if s := empty.Summary(); s != (Summary{}) || empty.Quantile(0.5) != 0 {
		t.Fatalf("empty accumulator: %+v, P50 %v", s, empty.Quantile(0.5))
	}
	var one Mergeable
	one.Add(-3.25)
	if s := one.Summary(); s != (Summary{N: 1, Mean: -3.25, Min: -3.25, Max: -3.25}) {
		t.Fatalf("single value: %+v", s)
	}
	if q := one.Quantile(0.99); q != -3.25 {
		t.Fatalf("single value P99 = %v, want the value (clamped to [min, max])", q)
	}
	var zeros Mergeable
	for i := 0; i < 5; i++ {
		zeros.Add(0)
	}
	if s := zeros.Summary(); s != (Summary{N: 5}) || zeros.Quantile(0.5) != 0 {
		t.Fatalf("zeros: %+v", s)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), 0x1p600} {
		var m Mergeable
		m.Add(1)
		m.Add(bad)
		if s := m.Summary(); s.N != 2 || !math.IsNaN(s.Mean) || !math.IsNaN(m.Quantile(0.5)) {
			t.Fatalf("%v: summary %+v, want N=2 and NaN moments", bad, s)
		}
	}
}

// TestMergeBinaryRejectsBadPayloads: MergeBinary validates everything
// before writing, so a rejected state leaves the target untouched.
func TestMergeBinaryRejectsBadPayloads(t *testing.T) {
	var m Mergeable
	for _, x := range []float64{-2, 0, 0.5, 7, 1e4} {
		m.Add(x)
	}
	good := m.AppendBinary(nil)
	cases := map[string][]byte{
		"empty":       nil,
		"truncated":   good[:len(good)-3],
		"outside > n": {2, 3},
		"huge count":  {0xff, 0xff, 0xff, 0xff, 0x0f, 0},
		"inverted range": binary.LittleEndian.AppendUint64(
			binary.LittleEndian.AppendUint64([]byte{1, 0}, math.Float64bits(2)), math.Float64bits(1)),
		"count too big": append(append([]byte(nil), good[:len(good)-2]...), 9, 0),
		"no terminator": good[:len(good)-1],
	}
	for name, b := range cases {
		target := m
		before := target.AppendBinary(nil)
		if _, _, err := MergeBinary(b, &target); err == nil {
			t.Errorf("%s accepted", name)
		}
		if !bytes.Equal(target.AppendBinary(nil), before) {
			t.Errorf("%s: rejected state mutated the target", name)
		}
	}
	n, rest, err := MergeBinary(append(good, 0xaa), nil)
	if err != nil || n != 5 || !bytes.Equal(rest, []byte{0xaa}) {
		t.Fatalf("valid state: n=%d rest=%x err=%v", n, rest, err)
	}
}
