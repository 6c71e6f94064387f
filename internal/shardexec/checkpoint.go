package shardexec

import (
	"errors"
	"fmt"
	"io/fs"
	"os"

	"repro/internal/fleet"
)

// The checkpoint file is the plain concatenation of the WFSH frames
// (fleet.EncodeShard) of every shard the supervisor merged, in merge
// order: each frame exactly as its worker emitted it. A frame carries
// its spec hash and its (Index, Lo, Hi), so a resume checks every
// recovered frame like a worker reply — same spec, in the plan, merged
// at most once — and re-runs the shards the log is missing. Shard states
// merge exactly in any order.
//
// Crash model: the process (or machine) can die mid-append, leaving a
// torn final frame. Each frame is written with a single write(2) and
// fsynced, so a frame that reads back whole and checksums clean was
// durably complete; fleet.DecodeShardLog stops at the first one that
// does not, and the file is truncated there.

// openCheckpoint opens the log at path for appending. Without resume,
// or when the file is missing or empty, the log starts empty. With
// resume it reads the existing log whole, so no length field inside it
// can size an allocation, and returns the shards it recovers. A file
// that is not a log of the current format, or holds a frame that does
// not decode, is an error and is left untouched; a torn tail is cut off.
func openCheckpoint(path string, resume bool) (*os.File, []*fleet.ShardAggregate, error) {
	var data []byte
	if resume {
		var err error
		if data, err = os.ReadFile(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, nil, fmt.Errorf("shardexec: read checkpoint: %w", err)
		}
	}
	var shards []*fleet.ShardAggregate
	n := 0
	if len(data) > 0 {
		var err error
		if shards, n, err = fleet.DecodeShardLog(data); err != nil {
			return nil, nil, fmt.Errorf("shardexec: checkpoint %s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("shardexec: open checkpoint: %w", err)
	}
	if n < len(data) || !resume {
		if err := f.Truncate(int64(n)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("shardexec: truncate checkpoint: %w", err)
		}
	}
	return f, shards, nil
}

// appendFrame persists one merged shard's frame.
func appendFrame(f *os.File, frame []byte) error {
	if _, err := f.Write(frame); err != nil {
		return fmt.Errorf("shardexec: checkpoint append: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("shardexec: checkpoint sync: %w", err)
	}
	return nil
}
