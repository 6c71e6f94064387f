package fleet

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
)

// TestShardCodecRoundTrip: EncodeShard/DecodeShard reproduce the shard
// exactly (DeepEqual over the range, spec hash and state) and the
// encoding is deterministic, for both fleet shapes.
func TestShardCodecRoundTrip(t *testing.T) {
	for name, spec := range shardSpecs() {
		t.Run(name, func(t *testing.T) {
			for _, sa := range runShards(t, spec, 7) {
				blob := EncodeShard(sa)
				if string(blob) != string(EncodeShard(sa)) {
					t.Fatal("shard encoding is not deterministic")
				}
				got, err := DecodeShard(blob)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, sa) {
					t.Fatalf("shard [%d, %d) round trip mismatch", sa.Lo, sa.Hi)
				}
			}
		})
	}
}

// TestShardCodecRejectsBadFrames pins every rejection path of the
// envelope and payload: truncation, trailing bytes, magic/version skew,
// checksum damage, and structural inconsistencies.
func TestShardCodecRejectsBadFrames(t *testing.T) {
	spec := shardSpecs()["backend"]
	sa := runShards(t, spec, 8)[0]
	blob := EncodeShard(sa)

	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), blob...)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"empty":            nil,
		"truncated header": blob[:6],
		"truncated body":   blob[:len(blob)-5],
		"trailing bytes":   append(append([]byte(nil), blob...), 0xaa),
		"bad magic":        mutate(func(b []byte) { b[0] = 'X' }),
		"bad version":      mutate(func(b []byte) { b[4], b[5] = 0xff, 0xff }),
		"flipped bit":      mutate(func(b []byte) { b[len(b)/2] ^= 0x40 }),
		"damaged crc":      mutate(func(b []byte) { b[len(b)-1] ^= 0x01 }),
	}
	for name, b := range cases {
		if _, err := DecodeShard(b); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	// Structural damage behind a recomputed (valid) checksum: a range
	// that is inverted, a range that disagrees with the state's device
	// count, a truncated state, and a frame of another magic.
	reframed := func(f func(b []byte) []byte) []byte {
		payload := f(append([]byte(nil), blob[frameHeaderSize:len(blob)-4]...))
		return EncodeShard(&ShardAggregate{
			Index: int(binary.LittleEndian.Uint32(payload)),
			Lo:    int(binary.LittleEndian.Uint64(payload[4:])),
			Hi:    int(binary.LittleEndian.Uint64(payload[12:])),
			state: payload[shardHeaderSize:],
		})
	}
	if _, err := DecodeShard(reframed(func(p []byte) []byte { p[4] = 0xee; return p })); err == nil {
		t.Error("inconsistent shard range accepted")
	}
	if _, err := DecodeShard(reframed(func(p []byte) []byte { p[12]++; return p })); err == nil {
		t.Error("range longer than the state's device count accepted")
	}
	if _, err := DecodeShard(reframed(func(p []byte) []byte { return p[:len(p)-3] })); err == nil {
		t.Error("corrupt embedded state accepted")
	}
	foreign := append([]byte(nil), blob...)
	copy(foreign, "XFSH")
	binary.LittleEndian.PutUint32(foreign[len(foreign)-4:], crc32.Checksum(foreign[:len(foreign)-4], castagnoli))
	if _, err := DecodeShard(foreign); err == nil {
		t.Error("frame of another magic accepted")
	}

	// A bare aggregate state is not a shard frame.
	if _, err := DecodeShard(NewAggregate(spec).EncodeState()); err == nil {
		t.Error("state accepted as shard frame")
	}
}

// TestStateCodecRejectsBadFrames: a shard whose aggregate state is
// structurally invalid or computed from another spec is never merged,
// and a failed merge leaves the aggregate untouched. (Bit damage is the
// WFSH checksum's job: TestShardCodecRejectsBadFrames.)
func TestStateCodecRejectsBadFrames(t *testing.T) {
	spec := shardSpecs()["backend"]
	sa := runShards(t, spec, 8)[0]
	state := sa.state
	withState := func(b []byte) *ShardAggregate {
		bad := *sa
		bad.state = b
		return &bad
	}
	mutated := func(f func(p []byte)) []byte {
		p := append([]byte(nil), state...)
		f(p)
		return p
	}

	into := NewAggregate(spec)
	before := marshalSummary(t, into.Summary())
	for name, b := range map[string][]byte{
		"empty":               nil,
		"truncated":           state[:len(state)-9],
		"truncated tail":      state[:len(state)-3],
		"trailing bytes":      append(append([]byte(nil), state...), 1),
		"shard frame":         EncodeShard(sa),
		"device count":        mutated(func(p []byte) { p[32]++ }),
		"leaky above devices": mutated(func(p []byte) { p[33] = 0x7f }),
	} {
		if err := into.MergeShard(withState(b)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if after := marshalSummary(t, into.Summary()); string(after) != string(before) {
		t.Error("a rejected merge mutated the aggregate")
	}

	other := spec
	other.Seed++
	if err := NewAggregate(other).MergeShard(sa); err == nil {
		t.Error("state merged into aggregate with different spec")
	}
}

func benchShard(b *testing.B) *ShardAggregate {
	b.Helper()
	spec := Spec{Devices: 256, Seed: 9, Hours: 0.1}.WithDefaults()
	sa, err := RunShard(context.Background(), spec, 0, 256, 0)
	if err != nil {
		b.Fatal(err)
	}
	return sa
}

// BenchmarkEncodeShard serializes a 256-device shard.
func BenchmarkEncodeShard(b *testing.B) {
	sa := benchShard(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if blob := EncodeShard(sa); len(blob) == 0 {
			b.Fatal("empty frame")
		}
	}
}

// BenchmarkDecodeShard parses and validates the same frame.
func BenchmarkDecodeShard(b *testing.B) {
	blob := EncodeShard(benchShard(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeShard(blob); err != nil {
			b.Fatal(err)
		}
	}
}
