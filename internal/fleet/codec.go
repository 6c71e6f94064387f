package fleet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/backend"
	"repro/internal/stats"
)

// The multi-process fleet protocol's one binary format, the WFSH frame:
//
//	[magic "WFSH" 4][version u16][payload length u32][payload][crc32c u32]
//	payload = [shard index u32][lo u64][hi u64][aggregate state]
//
// A frame carries one ShardAggregate: what a shard-worker process writes
// to stdout, and what the supervisor appends to its checkpoint, which is
// nothing but the concatenation of the frames it merged (DecodeShardLog
// reads one back). The aggregate state (EncodeState) is the spec hash,
// the device counts, and every distribution and counter of the range's
// aggregate. Every part of it merges exactly, so a frame's size depends
// on the spread of the metrics, not on the number of devices.
//
// The CRC (Castagnoli) covers everything before it — magic, version,
// length and payload — so a truncated pipe, a torn checkpoint tail, or a
// flipped bit decodes as a loud error instead of a silently wrong
// summary. Fixed-width integers are little-endian, counts are varints,
// and floats cross as their IEEE-754 bit patterns.

const (
	shardMagic = "WFSH"

	// CodecVersion is the on-wire version of the frame. Bump it on any
	// layout change: a supervisor refuses frames from a worker or
	// checkpoint of a different version instead of misparsing them.
	// v3 replaced the per-device observation rows with the exactly
	// mergeable aggregate state; v4 carries that state unwrapped, with no
	// inner frame of its own.
	CodecVersion = 4

	frameHeaderSize = 4 + 2 + 4
	// shardHeaderSize is the index and range in front of a shard's state.
	shardHeaderSize = 4 + 8 + 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errTorn marks bytes that do not begin with a whole frame whose
// checksum verifies: a truncated write, or not a frame at all.
var errTorn = errors.New("fleet: torn shard frame")

// readFrame checks the frame at the head of data and returns its payload
// and its length in bytes. A frame that is short or fails its checksum
// is errTorn; one whose checksum holds but whose magic or version is not
// the current one is a plain error.
func readFrame(data []byte) (payload []byte, n int, err error) {
	if len(data) < frameHeaderSize+4 {
		return nil, 0, fmt.Errorf("%w: %d bytes, want at least %d", errTorn, len(data), frameHeaderSize+4)
	}
	size := uint64(binary.LittleEndian.Uint32(data[6:]))
	if uint64(len(data)) < frameHeaderSize+size+4 {
		return nil, 0, fmt.Errorf("%w: %d bytes, want %d for a payload of %d", errTorn, len(data), frameHeaderSize+size+4, size)
	}
	n = frameHeaderSize + int(size) + 4
	if got, want := crc32.Checksum(data[:n-4], castagnoli), binary.LittleEndian.Uint32(data[n-4:]); got != want {
		return nil, 0, fmt.Errorf("%w: checksum %08x, want %08x", errTorn, got, want)
	}
	if string(data[:4]) != shardMagic {
		return nil, 0, fmt.Errorf("fleet: frame magic %q, want %q", data[:4], shardMagic)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != CodecVersion {
		return nil, 0, fmt.Errorf("fleet: frame version %d, want %d", v, CodecVersion)
	}
	return data[frameHeaderSize : n-4], n, nil
}

var errTruncated = errors.New("fleet: truncated aggregate state")

// takeCount consumes a varint count (at most 2^53).
func takeCount(data []byte) (int, []byte, error) {
	v, k := binary.Uvarint(data)
	if k <= 0 || v > 1<<53 {
		return 0, nil, errTruncated
	}
	return int(v), data[k:], nil
}

// appendBinary appends the policy block: the five distributions, the
// guarantee counters, then the backend counters and arrival histogram
// when the spec has a backend model.
func (p *policyAcc) appendBinary(b []byte) []byte {
	for _, m := range p.mergeables() {
		b = m.AppendBinary(b)
	}
	b = binary.AppendUvarint(b, uint64(p.perceptibleLate))
	b = binary.AppendUvarint(b, uint64(p.graceLate))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.maxPerceptibleDelay))
	if p.hist == nil {
		return append(b, 0)
	}
	b = p.bk.AppendBinary(append(b, 1))
	hist := p.hist.AppendBinary(nil)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(hist)))
	return append(b, hist...)
}

// EncodeState serializes the aggregate's state, unframed: a WFSH frame
// carries it behind the shard header and checksums it. Merging it into
// another aggregate of the same spec is the same as having folded this
// one's devices there.
func (a *Aggregate) EncodeState() []byte {
	b := make([]byte, 0, 2048)
	b = append(b, a.hash[:]...)
	b = binary.AppendUvarint(b, uint64(a.devices))
	b = binary.AppendUvarint(b, uint64(a.leaky))
	b = a.base.appendBinary(b)
	b = a.test.appendBinary(b)
	for _, m := range a.savings() {
		b = m.AppendBinary(b)
	}
	return b
}

// mergeState validates an aggregate state and returns its device count.
// With a non-nil a it also checks the state against a's spec, and with
// apply set it folds the state into a. A pass without apply writes
// nothing, so validating first and then applying is all-or-nothing.
func mergeState(payload []byte, a *Aggregate, apply bool) (int, error) {
	if len(payload) < 32 {
		return 0, errTruncated
	}
	if a != nil && !bytes.Equal(payload[:32], a.hash[:]) {
		return 0, fmt.Errorf("fleet: state spec hash %x does not match aggregate spec %x", payload[:4], a.hash[:4])
	}
	devices, rest, err := takeCount(payload[32:])
	if err != nil {
		return 0, err
	}
	leaky, rest, err := takeCount(rest)
	if err != nil {
		return 0, err
	}
	if leaky > devices || devices > maxDevices {
		return 0, fmt.Errorf("fleet: state counts %d devices (%d leaky)", devices, leaky)
	}
	var like, into [2]*policyAcc
	var savings [4]*stats.Mergeable
	if a != nil {
		like = [2]*policyAcc{a.base, a.test}
		if apply {
			into, savings = like, a.savings()
		}
	}
	for i := range like {
		if rest, err = mergePolicy(rest, devices, like[i], into[i]); err != nil {
			return 0, err
		}
	}
	for _, m := range savings {
		if rest, err = mergeDist(rest, devices, m); err != nil {
			return 0, err
		}
	}
	if len(rest) != 0 {
		return 0, fmt.Errorf("fleet: %d trailing bytes after aggregate state", len(rest))
	}
	if apply {
		a.devices += devices
		a.leaky += leaky
	}
	return devices, nil
}

// mergeDist reads one distribution, which must hold one value per
// device, folding it into into when non-nil.
func mergeDist(data []byte, devices int, into *stats.Mergeable) ([]byte, error) {
	n, rest, err := stats.MergeBinary(data, into)
	if err != nil {
		return nil, err
	}
	if n != devices {
		return nil, fmt.Errorf("fleet: state distribution holds %d values for %d devices", n, devices)
	}
	return rest, nil
}

// mergePolicy reads one policy block. like, when non-nil, is the
// target's policy the block must be compatible with; into, when
// non-nil, receives the block.
func mergePolicy(data []byte, devices int, like, into *policyAcc) ([]byte, error) {
	var ms [5]*stats.Mergeable
	if into != nil {
		ms = into.mergeables()
	}
	var err error
	for _, m := range ms {
		if data, err = mergeDist(data, devices, m); err != nil {
			return nil, err
		}
	}
	late, data, err := takeCount(data)
	if err != nil {
		return nil, err
	}
	grace, data, err := takeCount(data)
	if err != nil {
		return nil, err
	}
	if len(data) < 9 {
		return nil, errTruncated
	}
	maxDelay := math.Float64frombits(binary.LittleEndian.Uint64(data))
	flag := data[8]
	data = data[9:]
	if flag > 1 || !(maxDelay >= 0 && maxDelay <= math.MaxFloat64) {
		return nil, fmt.Errorf("fleet: policy block with backend flag %d, max delay %v is invalid", flag, maxDelay)
	}
	if like != nil && (flag == 1) != (like.hist != nil) {
		return nil, fmt.Errorf("fleet: state backend presence %v does not match spec", flag == 1)
	}
	var bk backend.DeviceStats
	var hist *backend.Histogram
	if flag == 1 {
		if len(data) < backend.DeviceStatsBinarySize+4 {
			return nil, errTruncated
		}
		if err := bk.UnmarshalBinary(data[:backend.DeviceStatsBinarySize]); err != nil {
			return nil, err
		}
		data = data[backend.DeviceStatsBinarySize:]
		n := int(binary.LittleEndian.Uint32(data))
		if len(data)-4 < n {
			return nil, errTruncated
		}
		hist = &backend.Histogram{}
		if err := hist.UnmarshalBinary(data[4 : 4+n]); err != nil {
			return nil, err
		}
		if like != nil && hist.Width != like.hist.Width {
			return nil, fmt.Errorf("fleet: state histogram width %d does not match spec %d", hist.Width, like.hist.Width)
		}
		data = data[4+n:]
	}
	if into != nil {
		into.perceptibleLate += late
		into.graceLate += grace
		into.maxPerceptibleDelay = max(into.maxPerceptibleDelay, maxDelay)
		if hist != nil {
			into.bk.Merge(&bk)
			into.hist.Merge(hist)
		}
	}
	return data, nil
}

// EncodeShard serializes a shard aggregate into a checksummed WFSH
// frame: the worker→supervisor wire format and the checkpoint's unit of
// append.
func EncodeShard(sa *ShardAggregate) []byte {
	b := make([]byte, frameHeaderSize, frameHeaderSize+shardHeaderSize+len(sa.state)+4)
	copy(b, shardMagic)
	binary.LittleEndian.PutUint16(b[4:], CodecVersion)
	binary.LittleEndian.PutUint32(b[6:], uint32(shardHeaderSize+len(sa.state)))
	b = binary.LittleEndian.AppendUint32(b, uint32(sa.Index))
	b = binary.LittleEndian.AppendUint64(b, uint64(sa.Lo))
	b = binary.LittleEndian.AppendUint64(b, uint64(sa.Hi))
	b = append(b, sa.state...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// DecodeShard parses one WFSH frame, rejecting truncated, corrupt,
// version-skewed, or structurally invalid frames and trailing bytes. The
// frame may come from an untrusted worker: decoding never panics, and a
// frame that decodes re-encodes to the same bytes.
func DecodeShard(data []byte) (*ShardAggregate, error) {
	sa, n, err := readShard(data)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fmt.Errorf("fleet: %d trailing bytes after shard frame", len(data)-n)
	}
	return sa, nil
}

// DecodeShardLog reads a checkpoint log: WFSH frames, concatenated. Data
// that does not begin with the current magic and version is not such a
// log and is an error. The scan stops at the first frame that is short
// or fails its checksum — a write torn by a crash — and n is where that
// torn tail starts (len(data) when there is none). A frame whose
// checksum holds but that does not decode is an error: that is damage
// no crash explains.
func DecodeShardLog(data []byte) (shards []*ShardAggregate, n int, err error) {
	if len(data) < 6 || string(data[:4]) != shardMagic || binary.LittleEndian.Uint16(data[4:]) != CodecVersion {
		return nil, 0, fmt.Errorf("fleet: not a v%d shard log: starts with %q", CodecVersion, data[:min(len(data), 6)])
	}
	for n < len(data) {
		sa, k, err := readShard(data[n:])
		if errors.Is(err, errTorn) {
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("fleet: shard frame at byte %d: %w", n, err)
		}
		shards = append(shards, sa)
		n += k
	}
	return shards, n, nil
}

// readShard decodes the frame at the head of data and returns it with
// the frame's length.
func readShard(data []byte) (*ShardAggregate, int, error) {
	payload, n, err := readFrame(data)
	if err != nil {
		return nil, 0, err
	}
	if len(payload) < shardHeaderSize {
		return nil, 0, fmt.Errorf("fleet: shard payload is %d bytes, want at least %d", len(payload), shardHeaderSize)
	}
	sa := &ShardAggregate{
		Index: int(int32(binary.LittleEndian.Uint32(payload))),
		Lo:    int(int64(binary.LittleEndian.Uint64(payload[4:]))),
		Hi:    int(int64(binary.LittleEndian.Uint64(payload[12:]))),
	}
	if sa.Index < 0 || sa.Lo < 0 || sa.Hi <= sa.Lo || sa.Hi > maxDevices {
		return nil, 0, fmt.Errorf("fleet: shard %d range [%d, %d) is invalid", sa.Index, sa.Lo, sa.Hi)
	}
	state := payload[shardHeaderSize:]
	devices, err := mergeState(state, nil, false)
	if err != nil {
		return nil, 0, err
	}
	if devices != sa.Hi-sa.Lo {
		return nil, 0, fmt.Errorf("fleet: shard [%d, %d) carries a state of %d devices", sa.Lo, sa.Hi, devices)
	}
	copy(sa.SpecHash[:], state)
	sa.state = bytes.Clone(state)
	return sa, n, nil
}
