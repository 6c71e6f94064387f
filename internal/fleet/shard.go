package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
)

// This file is the fleet layer's multi-process seam. Every part of an
// Aggregate merges exactly, so a shard ships the aggregate of its own
// device range, and the supervisor merges shards in whatever order they
// complete: the result is the same state, and the same Summary bytes, as
// a single-process fleet.Run. A shard's size depends on the metrics'
// spread, not on its device count.

// ShardAggregate is the serializable result of simulating one
// contiguous device range [Lo, Hi) of a fleet: the encoded state of the
// aggregate over that range. It is what a shard-worker process writes
// to stdout and what the checkpoint file persists.
type ShardAggregate struct {
	// Index is the shard's position in the supervisor's plan.
	Index int
	// Lo, Hi delimit the device range (half-open).
	Lo, Hi int
	// SpecHash is the hash of the spec the shard was computed from; a
	// supervisor checks it against its manifest.
	SpecHash [32]byte
	// state is the range's aggregate state (EncodeState).
	state []byte
}

// SpecHash is the canonical content hash of a spec: SHA-256 over the
// JSON encoding of the defaulted spec. Manifests, shard outputs, and
// checkpoints all carry it, so a spec edited between a crash and a
// resume is detected instead of silently merged.
func SpecHash(s Spec) [32]byte {
	blob, err := json.Marshal(s.WithDefaults())
	if err != nil {
		// A Spec is plain data; its JSON encoding cannot fail.
		panic(fmt.Sprintf("fleet: marshal spec: %v", err))
	}
	return sha256.Sum256(blob)
}

// RunShard simulates the device range [lo, hi) of the spec and returns
// its serializable shard aggregate. It is the worker half of the
// multi-process fleet protocol: device sampling is a pure function of
// (Spec, index), so any process can own any range. It runs the same
// batch loop as Run; workers bounds the sim.RunAll pool (≤ 0 means
// GOMAXPROCS).
func RunShard(ctx context.Context, spec Spec, lo, hi, workers int) (*ShardAggregate, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if lo < 0 || hi <= lo || hi > spec.Devices {
		return nil, fmt.Errorf("fleet: shard range [%d, %d) outside fleet of %d devices", lo, hi, spec.Devices)
	}
	agg := NewAggregate(spec)
	if err := agg.run(ctx, lo, hi, workers, nil, nil); err != nil {
		return nil, fmt.Errorf("fleet: shard %w", err)
	}
	return &ShardAggregate{Lo: lo, Hi: hi, SpecHash: agg.hash, state: agg.EncodeState()}, nil
}

// MergeShard folds a completed shard into the aggregate. Shards may
// arrive in any order; the caller owns merging each device range once.
// The shard's state must come from the aggregate's spec and cover
// exactly Hi−Lo devices. A shard that fails a check is not merged.
func (a *Aggregate) MergeShard(sa *ShardAggregate) error {
	if sa == nil {
		return fmt.Errorf("fleet: merge of nil shard")
	}
	devices, err := mergeState(sa.state, a, false)
	if err != nil {
		return fmt.Errorf("fleet: shard %d: %w", sa.Index, err)
	}
	if devices != sa.Hi-sa.Lo {
		return fmt.Errorf("fleet: shard [%d, %d) carries a state of %d devices", sa.Lo, sa.Hi, devices)
	}
	_, err = mergeState(sa.state, a, true)
	return err
}
