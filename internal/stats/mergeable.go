package stats

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"
)

// Mergeable summarizes a distribution in state that merges exactly:
// folding values into one accumulator, or into several that are then
// merged in any grouping and order, yields the same state, because
// every part of it combines by integer addition or by min/max:
//
//   - the count and the exact Min and Max;
//   - the exact sums of x and x². A float64 is a 53-bit integer times a
//     power of two, so it adds without rounding into a fixed array of
//     32-bit digits indexed by binary exponent (a long accumulator). x²
//     enters as its math.FMA hi/lo split, two float64s whose sum is x².
//     Summary rounds once from these sums;
//   - a log-linear quantile sketch in the DDSketch style (Masson et al.,
//     VLDB 2019): one bucket per 1/64 of a binary octave, kept apart for
//     negative and positive values, plus a zero count. Every quantile is
//     within relative error Alpha of the nearest-rank order statistic,
//     clamped to [Min, Max].
//
// The domain is |x| < 2^511, where x² is finite. A NaN, an infinity or a
// larger magnitude is counted in N but makes every other Summary field
// and every quantile NaN. Magnitudes below 2^-1022 (subnormals) sketch
// as zero, and squares of magnitudes below 2^-485 lose low bits; the
// digit array cannot overflow for fewer than 2^30 values.
//
// The zero value is an empty accumulator ready for use.
type Mergeable struct {
	n, outside int
	min, max   float64
	sum, sumSq longSum
	neg, pos   store
	zero       uint64
}

// Alpha is the sketch's relative-error bound: each bucket spans 1/64 of
// an octave and reports its midpoint.
const Alpha = 1.0 / 128

const (
	digitBits = 32
	// sumDigits 32-bit digits cover bit weights 2^-1074 (the smallest
	// subnormal) through 2^1069: every float64 and 2^45 times the largest.
	sumDigits = 67
	// subBits is log2 of the sketch buckets per octave.
	subBits = 6
	// maxAbs bounds the domain so that x² stays finite.
	maxAbs = 0x1p511
	// maxCount keeps every digit inside int64: each value adds less than
	// 2^32 to a digit of sum and twice to one of sumSq.
	maxCount = 1 << 30
	// minKey and maxKey bound the sketch keys of normal magnitudes below
	// maxAbs.
	minKey = 1 << subBits
	maxKey = (1023 + 511) << subBits
)

// longSum is the exact sum of float64 addends: digit i holds the
// multiple of 2^(32i-1074). Digits are signed and never carried, so
// addition is digit-wise and order-free.
type longSum [sumDigits]int64

func (s *longSum) add(x float64) {
	b := math.Float64bits(x)
	m := b & (1<<52 - 1)
	p := int(b>>52) & 0x7ff // x = ±m·2^(p-1074) after the fix-up below
	if p != 0 {
		m |= 1 << 52
		p--
	}
	if m == 0 {
		return
	}
	i, sh := p/digitBits, uint(p%digitBits)
	lo, hi := m<<sh, m>>(64-sh)
	d0, d1, d2 := int64(lo&(1<<digitBits-1)), int64(lo>>digitBits), int64(hi)
	if b>>63 != 0 {
		d0, d1, d2 = -d0, -d1, -d2
	}
	s[i] += d0
	s[i+1] += d1
	s[i+2] += d2
}

// span is the half-open range of nonzero digits; lo == hi when s is 0.
func (s *longSum) span() (lo, hi int) {
	for hi = len(s); hi > 0 && s[hi-1] == 0; hi-- {
	}
	for lo = 0; lo < hi && s[lo] == 0; lo++ {
	}
	return lo, hi
}

// value returns s as v·2^exp.
func (s *longSum) value() (v *big.Int, exp int) {
	lo, hi := s.span()
	v, d := new(big.Int), new(big.Int)
	for i := hi - 1; i >= lo; i-- {
		v.Lsh(v, digitBits)
		v.Add(v, d.SetInt64(s[i]))
	}
	return v, lo*digitBits - 1074
}

// store counts magnitudes by sketch key: bins[i] is key off+i, and
// only keys [lo, hi) are occupied (lo == hi when empty).
type store struct {
	off, lo, hi int
	bins        []uint64
}

// sketchKey is the exponent and top subBits mantissa bits of a normal
// magnitude: monotone in a, 64 keys per octave.
func sketchKey(a float64) int { return int(math.Float64bits(a) >> (52 - subBits)) }

// keyValue is the midpoint of key k's bucket.
func keyValue(k int) float64 {
	lo := math.Float64frombits(uint64(k) << (52 - subBits))
	hi := math.Float64frombits(uint64(k+1) << (52 - subBits))
	return (lo + hi) / 2
}

// add counts c > 0 values under key k. The bins grow with slack on
// the side they grow, so a widening stream reallocates O(log) times.
func (s *store) add(k int, c uint64) {
	if s.lo == s.hi {
		s.lo, s.hi = k, k+1
	} else {
		s.lo, s.hi = min(s.lo, k), max(s.hi, k+1)
	}
	if end := s.off + len(s.bins); len(s.bins) == 0 || k < s.off || k >= end {
		if len(s.bins) == 0 {
			s.off, end = k, k
		}
		lo, hi := min(k, s.off), max(k+1, end)
		pad := (hi - lo) / 2
		if lo < s.off {
			lo -= pad
		}
		if hi > end {
			hi += pad
		}
		bins := make([]uint64, hi-lo)
		copy(bins[s.off-lo:], s.bins)
		s.off, s.bins = lo, bins
	}
	s.bins[k-s.off] += c
}

// used is the occupied bins; used()[i] is key lo+i.
func (s *store) used() []uint64 { return s.bins[s.lo-s.off : s.hi-s.off] }

// Add folds one value.
func (m *Mergeable) Add(x float64) {
	a := math.Abs(x)
	if !(a < maxAbs) {
		m.mergeRange(1, 1, 0, 0)
		return
	}
	m.mergeRange(1, 0, x, x)
	m.sum.add(x)
	sq := x * x
	m.sumSq.add(sq)
	m.sumSq.add(math.FMA(x, x, -sq))
	if a < 0x1p-1022 {
		m.zero++
		return
	}
	if x < 0 {
		m.neg.add(sketchKey(a), 1)
	} else {
		m.pos.add(sketchKey(a), 1)
	}
}

// mergeRange folds the count and range of another state.
func (m *Mergeable) mergeRange(n, outside int, lo, hi float64) {
	if n > outside {
		if m.n == m.outside {
			m.min, m.max = lo, hi
		} else {
			m.min, m.max = math.Min(m.min, lo), math.Max(m.max, hi)
		}
	}
	m.n += n
	m.outside += outside
}

// Summary rounds the exact state to the batch Summary shape. The mean
// is the exact sum over N rounded once; the variance
// (N·Σx² − (Σx)²) / (N(N−1)) is computed exactly and rounded once, and
// Std is its square root.
func (m *Mergeable) Summary() Summary {
	if m.outside > 0 {
		nan := math.NaN()
		return Summary{N: m.n, Mean: nan, Std: nan, Min: nan, Max: nan, CI95: nan}
	}
	if m.n == 0 {
		return Summary{}
	}
	s := Summary{N: m.n, Min: m.min, Max: m.max}
	sum, es := m.sum.value()
	n := new(big.Float).SetInt64(int64(m.n))
	exact := new(big.Float).SetInt(sum)
	s.Mean, _ = new(big.Float).SetPrec(53).Quo(exact.SetMantExp(exact, es), n).Float64()
	if m.n < 2 {
		return s
	}
	sq, eq := m.sumSq.value()
	c := min(eq, 2*es)
	d := sq.Mul(sq, big.NewInt(int64(m.n)))
	d.Lsh(d, uint(eq-c))
	sum.Mul(sum, sum)
	d.Sub(d, sum.Lsh(sum, uint(2*es-c)))
	if d.Sign() > 0 {
		v := new(big.Float).SetInt(d)
		v.SetMantExp(v, c)
		variance, _ := new(big.Float).SetPrec(53).Quo(v, n.Mul(n, new(big.Float).SetInt64(int64(m.n-1)))).Float64()
		s.Std = math.Sqrt(variance)
	}
	s.CI95 = critT95(m.n) * s.Std / math.Sqrt(float64(m.n))
	return s
}

// Quantile is the sketch's estimate of the nearest-rank p-quantile (the
// ⌈p·N⌉-th smallest value): within relative error Alpha of it and
// inside [Min, Max]. It is 0 when empty.
func (m *Mergeable) Quantile(p float64) float64 {
	if m.outside > 0 {
		return math.NaN()
	}
	if m.n == 0 {
		return 0
	}
	rank := uint64(min(max(int(math.Ceil(p*float64(m.n))), 1), m.n)) // 1-based
	v, seen := 0.0, uint64(0)
	neg := m.neg.used()
	for i := len(neg) - 1; i >= 0 && seen < rank; i-- {
		if seen += neg[i]; seen >= rank {
			v = -keyValue(m.neg.lo + i)
		}
	}
	if seen += m.zero; seen < rank {
		for i, c := range m.pos.used() {
			if seen += c; seen >= rank {
				v = keyValue(m.pos.lo + i)
				break
			}
		}
	}
	return math.Max(m.min, math.Min(v, m.max))
}

// AppendBinary appends the state to b: varint counts, the range as
// IEEE-754 bits, the nonzero digit span of each sum and the nonzero
// bins of each sketch store as (key gap, count) pairs. Its size depends
// on the data's spread, not on N. MergeBinary reads it back.
func (m *Mergeable) AppendBinary(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(m.n))
	b = binary.AppendUvarint(b, uint64(m.outside))
	if m.n == m.outside {
		return b
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.min))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(m.max))
	for _, s := range [...]*longSum{&m.sum, &m.sumSq} {
		lo, hi := s.span()
		b = append(b, byte(lo), byte(hi-lo))
		for _, d := range s[lo:hi] {
			b = binary.AppendVarint(b, d)
		}
	}
	b = binary.AppendUvarint(b, m.zero)
	for _, s := range [...]*store{&m.neg, &m.pos} {
		prev := 0
		for i, c := range s.used() {
			if c != 0 {
				b = binary.AppendUvarint(b, uint64(s.lo+i-prev))
				b = binary.AppendUvarint(b, c)
				prev = s.lo + i
			}
		}
		b = append(b, 0) // a zero key gap ends the store
	}
	return b
}

var errTruncated = errors.New("stats: truncated mergeable state")

// reader consumes a state encoding, remembering the first error.
type reader struct {
	data []byte
	err  error
}

func (r *reader) uvarint() uint64 {
	if d := r.data; len(d) > 0 && d[0] < 0x80 { // most sketch counts
		r.data = d[1:]
		return uint64(d[0])
	}
	v, k := binary.Uvarint(r.data)
	if k <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.data = r.data[k:]
	return v
}

func (r *reader) varint() int64 {
	v, k := binary.Varint(r.data)
	if k <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.data = r.data[k:]
	return v
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
		r.data = nil
	}
}

// MergeBinary validates one state written by AppendBinary at the front
// of data and, when into is non-nil, folds it into into: the result
// equals having added the state's values to into. It returns the
// state's count and the bytes after it. A state that fails validation
// leaves into untouched, so validating every state of a multi-state
// merge with a nil into first makes the merge all-or-nothing.
func MergeBinary(data []byte, into *Mergeable) (int, []byte, error) {
	n, rest, err := mergeBinary(data, nil)
	if err != nil || into == nil {
		return n, rest, err
	}
	return mergeBinary(data, into)
}

func mergeBinary(data []byte, into *Mergeable) (int, []byte, error) {
	r := &reader{data: data}
	n, outside := r.uvarint(), r.uvarint()
	if r.err != nil {
		return 0, nil, r.err
	}
	if n >= maxCount || outside > n {
		return 0, nil, fmt.Errorf("stats: mergeable counts %d values, %d outside the domain", n, outside)
	}
	in := n - outside
	if in == 0 {
		if into != nil {
			into.mergeRange(int(n), int(outside), 0, 0)
		}
		return int(n), r.data, nil
	}
	if len(r.data) < 16 {
		return 0, nil, errTruncated
	}
	lo := math.Float64frombits(binary.LittleEndian.Uint64(r.data))
	hi := math.Float64frombits(binary.LittleEndian.Uint64(r.data[8:]))
	r.data = r.data[16:]
	if !(math.Abs(lo) < maxAbs && math.Abs(hi) < maxAbs && lo <= hi) {
		return 0, nil, fmt.Errorf("stats: mergeable range [%v, %v] is invalid", lo, hi)
	}
	var sums [2]*longSum
	var stores [2]*store
	if into != nil {
		sums = [2]*longSum{&into.sum, &into.sumSq}
		stores = [2]*store{&into.neg, &into.pos}
	}
	// Each value adds under 2^32 to a digit of sum and twice to sumSq.
	limit := int64(in) << (digitBits + 1)
	for _, dst := range sums {
		if len(r.data) < 2 {
			r.fail(errTruncated)
			break
		}
		first, k := int(r.data[0]), int(r.data[1])
		r.data = r.data[2:]
		if first+k > sumDigits {
			return 0, nil, fmt.Errorf("stats: mergeable digits [%d, %d) outside the accumulator", first, first+k)
		}
		for i := first; i < first+k && r.err == nil; i++ {
			d := r.varint()
			if d <= -limit || d >= limit {
				return 0, nil, fmt.Errorf("stats: mergeable digit %d is out of range for %d values", d, in)
			}
			if dst != nil {
				dst[i] += d
			}
		}
	}
	zero := r.uvarint()
	total := zero
	for _, dst := range stores {
		for key := uint64(0); r.err == nil; {
			gap := r.uvarint()
			if gap == 0 {
				break
			}
			c := r.uvarint()
			if gap >= maxKey || key+gap < minKey || key+gap >= maxKey {
				return 0, nil, fmt.Errorf("stats: mergeable sketch key %d+%d outside the domain", key, gap)
			}
			key += gap
			if total += c; c == 0 || c > in || total > in {
				return 0, nil, fmt.Errorf("stats: mergeable sketch bin of %d does not fit its %d values", c, in)
			}
			if dst != nil {
				dst.add(int(key), c)
			}
		}
	}
	if r.err != nil {
		return 0, nil, r.err
	}
	if total != in {
		return 0, nil, fmt.Errorf("stats: mergeable sketch holds %d of its %d values", total, in)
	}
	if into != nil {
		into.mergeRange(int(n), int(outside), lo, hi)
		into.zero += zero
	}
	return int(n), r.data, nil
}
