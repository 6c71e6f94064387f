package backend

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/simclock"
)

// Binary codecs for the backend interchange types. The multi-process
// fleet sharding layer (internal/shardexec) ships per-shard arrival
// histograms and device counters between worker processes and the
// supervisor, and checkpoints them to disk, so both need an exact
// binary round-trip. Everything here is integer data: decode(encode(x))
// reproduces x exactly, and merging decoded copies is as exact as
// merging the originals (Histogram.Merge and DeviceStats.Merge are
// commutative, associative integer folds).
//
// Like the internal/stats codecs these are raw building blocks: the
// framed container formats in internal/fleet add the magic, version,
// and checksum that detect corruption.

// DeviceStatsBinarySize is the exact encoded size of the DeviceStats
// counters (the histogram is carried separately — it is per-policy
// shared state at the fleet layer, not per-counter-block state).
const DeviceStatsBinarySize = 8 * 8

// AppendBinary appends the eight counters to b and returns the extended
// slice. Hist is deliberately excluded, mirroring its json:"-" tag.
func (s *DeviceStats) AppendBinary(b []byte) []byte {
	for _, v := range [...]int64{s.Requests, s.Shed, s.ShedAttempts, s.Retries,
		s.Redelivered, s.Dropped, s.Pending, s.Reconnects} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// UnmarshalBinary restores the counters written by AppendBinary. Hist
// is left untouched.
func (s *DeviceStats) UnmarshalBinary(data []byte) error {
	if len(data) != DeviceStatsBinarySize {
		return fmt.Errorf("backend: device stats are %d bytes, want %d", len(data), DeviceStatsBinarySize)
	}
	ps := [...]*int64{&s.Requests, &s.Shed, &s.ShedAttempts, &s.Retries,
		&s.Redelivered, &s.Dropped, &s.Pending, &s.Reconnects}
	for i, p := range ps {
		v := int64(binary.LittleEndian.Uint64(data[8*i:]))
		if v < 0 {
			return fmt.Errorf("backend: negative counter %d in device stats", v)
		}
		*p = v
	}
	return nil
}

// AppendBinary appends the histogram to b and returns the extended
// slice: the bucket width, the entry count, then the (bucket, count)
// pairs in ascending bucket order. Sorting makes the encoding
// deterministic even though the in-memory representation is a map, so
// identical histograms always serialize to identical bytes.
func (h *Histogram) AppendBinary(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(h.Width))
	keys := make([]int64, 0, len(h.Buckets))
	for k := range h.Buckets {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	b = binary.LittleEndian.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		b = binary.LittleEndian.AppendUint64(b, uint64(k))
		b = binary.LittleEndian.AppendUint64(b, uint64(h.Buckets[k]))
	}
	return b
}

// UnmarshalBinary restores a histogram written by AppendBinary,
// rejecting truncated, oversized, or structurally invalid payloads.
func (h *Histogram) UnmarshalBinary(data []byte) error {
	if len(data) < 12 {
		return fmt.Errorf("backend: histogram payload is %d bytes, want at least 12", len(data))
	}
	width := simclock.Duration(binary.LittleEndian.Uint64(data))
	if width <= 0 {
		return fmt.Errorf("backend: non-positive histogram bucket width %d", width)
	}
	n := int(binary.LittleEndian.Uint32(data[8:]))
	if len(data) != 12+16*n {
		return fmt.Errorf("backend: histogram payload is %d bytes, want %d for %d buckets", len(data), 12+16*n, n)
	}
	buckets := make(map[int64]int64, n)
	for i := 0; i < n; i++ {
		k := int64(binary.LittleEndian.Uint64(data[12+16*i:]))
		v := int64(binary.LittleEndian.Uint64(data[20+16*i:]))
		if v < 0 {
			return fmt.Errorf("backend: negative count %d in histogram bucket %d", v, k)
		}
		if _, dup := buckets[k]; dup {
			return fmt.Errorf("backend: duplicate histogram bucket %d", k)
		}
		buckets[k] = v
	}
	h.Width, h.Buckets = width, buckets
	return nil
}
