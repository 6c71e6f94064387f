package shardexec

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/fleet"
)

// The checkpoint file is an append-only record log. Every record is
//
//	[type u8][payload length u32][payload][crc32c u32]
//
// with the CRC covering type, length, and payload. Two record types:
//
//	'H' — header, always first: checkpoint version, spec hash, shard
//	      size, device count, and the spec JSON (for tooling; the
//	      supervisor trusts only the hash).
//	'S' — one merged shard: a WFSH frame exactly as the worker
//	      emitted it. Shard states merge exactly in any order, so a
//	      resume merges every 'S' record and re-runs the rest.
//
// Crash model: the process (or machine) can die mid-append, leaving a
// torn final record. Loading tolerates exactly that — the scan stops at
// the first record that is short or fails its CRC, the file is
// truncated back to the last good boundary, and everything before it is
// trusted. Records are written with a single write(2) each and fsynced,
// so a record that scans clean was durably complete.

const (
	// checkpointVersion 2 dropped the 'A' aggregate-state record and
	// carries v3 shard frames.
	checkpointVersion = 2

	recHeader = 'H'
	recShard  = 'S'

	recOverhead = 1 + 4 + 4
	// maxRecordSize bounds a single record so a corrupt length field
	// cannot ask the loader to allocate gigabytes.
	maxRecordSize = 1 << 30
)

var checkpointCRC = crc32.MakeTable(crc32.Castagnoli)

// checkpointHeader is the 'H' payload.
type checkpointHeader struct {
	Version   int    `json:"version"`
	SpecHash  string `json:"spec_hash"`
	ShardSize int    `json:"shard_size"`
	Devices   int    `json:"devices"`
	// Spec is carried for humans and tooling (a checkpoint is
	// self-describing); the supervisor validates against SpecHash.
	Spec fleet.Spec `json:"spec"`
}

// checkpoint is the open WAL.
type checkpoint struct {
	f *os.File
}

// checkpointState is everything a resumed run recovers from the log.
type checkpointState struct {
	header checkpointHeader
	// shards holds every 'S' record in log order.
	shards []*fleet.ShardAggregate
	// truncated reports how many trailing bytes were cut as a torn tail.
	truncated int64
}

func appendRecord(f *os.File, typ byte, payload []byte) error {
	rec := make([]byte, 0, recOverhead+len(payload))
	rec = append(rec, typ)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	rec = binary.LittleEndian.AppendUint32(rec, crc32.Checksum(rec, checkpointCRC))
	if _, err := f.Write(rec); err != nil {
		return fmt.Errorf("shardexec: checkpoint append: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("shardexec: checkpoint sync: %w", err)
	}
	return nil
}

// createCheckpoint starts a fresh log (truncating any existing file)
// and writes the header record.
func createCheckpoint(path string, spec fleet.Spec, shardSize int) (*checkpoint, error) {
	spec = spec.WithDefaults()
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("shardexec: create checkpoint: %w", err)
	}
	hash := fleet.SpecHash(spec)
	hdr := checkpointHeader{
		Version:   checkpointVersion,
		SpecHash:  fmt.Sprintf("%x", hash[:]),
		ShardSize: shardSize,
		Devices:   spec.Devices,
		Spec:      spec,
	}
	payload, err := json.Marshal(hdr)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("shardexec: encode checkpoint header: %w", err)
	}
	if err := appendRecord(f, recHeader, payload); err != nil {
		f.Close()
		return nil, err
	}
	return &checkpoint{f: f}, nil
}

// loadCheckpoint scans an existing log, truncates a torn tail, and
// returns the recovered state together with the open (append-ready)
// file. The caller validates the header against its own spec.
func loadCheckpoint(path string) (*checkpoint, *checkpointState, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("shardexec: open checkpoint: %w", err)
	}
	st := &checkpointState{}
	var off int64
	sawHeader := false
	for {
		rec, payload, err := readRecord(f)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Torn or corrupt tail: everything from off onward is
			// untrusted. Cut it so future appends start at a clean
			// record boundary.
			end, serr := f.Seek(0, io.SeekEnd)
			if serr != nil {
				f.Close()
				return nil, nil, fmt.Errorf("shardexec: checkpoint seek: %w", serr)
			}
			st.truncated = end - off
			if terr := f.Truncate(off); terr != nil {
				f.Close()
				return nil, nil, fmt.Errorf("shardexec: truncate torn checkpoint tail: %w", terr)
			}
			if _, serr := f.Seek(off, io.SeekStart); serr != nil {
				f.Close()
				return nil, nil, fmt.Errorf("shardexec: checkpoint seek: %w", serr)
			}
			break
		}
		if !sawHeader && rec != recHeader {
			f.Close()
			return nil, nil, fmt.Errorf("shardexec: checkpoint does not start with a header record (type %q)", rec)
		}
		switch rec {
		case recHeader:
			if sawHeader {
				f.Close()
				return nil, nil, errors.New("shardexec: checkpoint has multiple header records")
			}
			if err := json.Unmarshal(payload, &st.header); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("shardexec: decode checkpoint header: %w", err)
			}
			if st.header.Version != checkpointVersion {
				f.Close()
				return nil, nil, fmt.Errorf("shardexec: checkpoint version %d, want %d", st.header.Version, checkpointVersion)
			}
			sawHeader = true
		case recShard:
			sa, err := fleet.DecodeShard(payload)
			if err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("shardexec: checkpoint shard record: %w", err)
			}
			st.shards = append(st.shards, sa)
		default:
			f.Close()
			return nil, nil, fmt.Errorf("shardexec: unknown checkpoint record type %q", rec)
		}
		pos, err := f.Seek(0, io.SeekCurrent)
		if err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("shardexec: checkpoint seek: %w", err)
		}
		off = pos
	}
	if !sawHeader {
		f.Close()
		return nil, nil, errors.New("shardexec: checkpoint is empty")
	}
	return &checkpoint{f: f}, st, nil
}

// readRecord reads one record at the current offset. io.EOF means a
// clean end; any other error means a torn or corrupt record starts here.
func readRecord(f *os.File) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("shardexec: torn record header: %w", err)
	}
	n := int(binary.LittleEndian.Uint32(hdr[1:]))
	if n > maxRecordSize {
		return 0, nil, fmt.Errorf("shardexec: record claims %d bytes", n)
	}
	body := make([]byte, n+4)
	if _, err := io.ReadFull(f, body); err != nil {
		return 0, nil, fmt.Errorf("shardexec: torn record body: %w", err)
	}
	sum := crc32.Checksum(hdr[:], checkpointCRC)
	sum = crc32.Update(sum, checkpointCRC, body[:n])
	if want := binary.LittleEndian.Uint32(body[n:]); sum != want {
		return 0, nil, fmt.Errorf("shardexec: record checksum %08x, want %08x", sum, want)
	}
	return hdr[0], body[:n], nil
}

// appendShard persists one completed shard frame.
func (c *checkpoint) appendShard(frame []byte) error {
	return appendRecord(c.f, recShard, frame)
}

func (c *checkpoint) Close() error {
	if c == nil || c.f == nil {
		return nil
	}
	err := c.f.Close()
	c.f = nil
	return err
}
