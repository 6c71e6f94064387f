package backend

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/simclock"
)

// TestHistogramRoundTripExact: random histograms (negative bucket keys
// included — a skewed clock can bucket before zero) survive the binary
// round-trip exactly, and the encoding is deterministic despite the map
// representation.
func TestHistogramRoundTripExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		h := NewHistogram(simclock.Duration(1+rng.Intn(100)) * simclock.Second)
		for i, n := 0, rng.Intn(50); i < n; i++ {
			h.Buckets[int64(rng.Intn(2000)-1000)] += int64(1 + rng.Intn(10000))
		}
		blob := h.AppendBinary(nil)
		blob2 := h.AppendBinary(nil)
		if string(blob) != string(blob2) {
			t.Fatal("histogram encoding is not deterministic")
		}
		var got Histogram
		if err := got.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&got, h) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, *h)
		}
		// Merging a decoded copy is as exact as merging the original.
		a, b := NewHistogram(h.Width), NewHistogram(h.Width)
		a.Merge(h)
		b.Merge(&got)
		if !reflect.DeepEqual(a, b) {
			t.Fatal("merge of decoded copy diverged from merge of original")
		}
	}
}

// TestDeviceStatsRoundTripExact covers the counter block.
func TestDeviceStatsRoundTripExact(t *testing.T) {
	s := DeviceStats{Requests: 101, Shed: 17, ShedAttempts: 23, Retries: 19,
		Redelivered: 11, Dropped: 3, Pending: 3, Reconnects: 44}
	blob := s.AppendBinary(nil)
	if len(blob) != DeviceStatsBinarySize {
		t.Fatalf("device stats are %d bytes, want %d", len(blob), DeviceStatsBinarySize)
	}
	var got DeviceStats
	if err := got.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, s)
	}
}

// TestCodecRejectsBadPayloads pins the rejection paths: truncation,
// trailing garbage, bad widths, negative counters, duplicate buckets.
func TestCodecRejectsBadPayloads(t *testing.T) {
	h := NewHistogram(10 * simclock.Second)
	h.Buckets[4] = 7
	h.Buckets[9] = 2
	blob := h.AppendBinary(nil)

	var into Histogram
	for name, b := range map[string][]byte{
		"truncated header": blob[:8],
		"truncated body":   blob[:len(blob)-3],
		"trailing garbage": append(append([]byte(nil), blob...), 1, 2, 3),
	} {
		if err := into.UnmarshalBinary(b); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	zeroWidth := append([]byte(nil), blob...)
	for i := 0; i < 8; i++ {
		zeroWidth[i] = 0
	}
	if err := into.UnmarshalBinary(zeroWidth); err == nil {
		t.Error("zero-width histogram accepted")
	}

	negCount := append([]byte(nil), blob...)
	for i := 20; i < 28; i++ {
		negCount[i] = 0xff
	}
	if err := into.UnmarshalBinary(negCount); err == nil {
		t.Error("negative bucket count accepted")
	}

	dup := append([]byte(nil), blob...)
	copy(dup[28:36], dup[12:20]) // second key := first key
	if err := into.UnmarshalBinary(dup); err == nil {
		t.Error("duplicate bucket key accepted")
	}

	var ds DeviceStats
	good := ds.AppendBinary(nil)
	if err := ds.UnmarshalBinary(good[:DeviceStatsBinarySize-1]); err == nil {
		t.Error("truncated device stats accepted")
	}
	neg := append([]byte(nil), good...)
	for i := 0; i < 8; i++ {
		neg[i] = 0xff
	}
	if err := ds.UnmarshalBinary(neg); err == nil {
		t.Error("negative device-stats counter accepted")
	}
}
