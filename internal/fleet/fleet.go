package fleet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/sim"
)

// Options tune a fleet run. The zero value uses GOMAXPROCS workers.
type Options struct {
	// Workers bounds the sim.RunAll pool; ≤ 0 means GOMAXPROCS. The
	// aggregate is byte-identical for any value.
	Workers int
	// Progress, when non-nil, is called after each device's pair of
	// runs is folded, with the number of devices done so far and the
	// fleet size. Calls arrive in device order from a single goroutine.
	Progress func(done, total int)
	// RunProgress, when non-nil, receives every underlying simulation
	// run's completion (two runs per device) as it finishes, before the
	// device is folded — a slow batch is observable run by run instead of
	// going dark until its first fold. Indices are fleet-global: Index is
	// the run's position in the 2×Devices run sequence, Done counts runs
	// finished across the whole fleet, Total is 2×Devices. Calls are
	// serialized (the sim.RunAll contract) but, unlike Progress, arrive
	// in completion order, not device order.
	RunProgress func(sim.Progress)
	// Snapshot, when non-nil, is called with a live copy of the running
	// aggregate after every SnapshotEvery folded devices and always after
	// the final device. Like Progress it is called in device order from a
	// single goroutine, so snapshots are deterministic for a fixed Spec.
	Snapshot func(done, total int, s Summary)
	// SnapshotEvery is the fold interval between Snapshot calls; ≤ 0
	// means DefaultSnapshotEvery.
	SnapshotEvery int
}

// DefaultShardSize is how many devices are in flight per sim.RunAll
// batch. Every run executes in the NoTrace mode and its Result is
// dropped once folded, so a batch peaks at a few megabytes regardless
// of fleet size.
const DefaultShardSize = 64

// DefaultSnapshotEvery is how many device folds separate consecutive
// Options.Snapshot calls when SnapshotEvery is unset.
const DefaultSnapshotEvery = 64

// Result is a finished fleet run.
type Result struct {
	// Spec is the population description the fleet was sampled from
	// (defaults applied).
	Spec Spec
	// Agg holds the streaming aggregates; Agg.Summary() is the
	// deterministic JSON form.
	Agg *Aggregate
	// Wall is the real time the whole fleet took. It is reported
	// separately from the Summary precisely because it is the one
	// quantity that may differ between byte-identical runs.
	Wall time.Duration
}

// Run samples spec.Devices device configurations, executes each under
// the base and test policies on the sim.RunAll worker pool, and streams
// the results into the aggregate. Memory is bounded by the batch size,
// not the fleet size: no Records, traces, or Results are retained past
// the batch that produced them.
//
// Determinism: device sampling is a pure function of (Spec, index) and
// the aggregate merges exactly, so Run's Summary is byte-identical
// across worker counts — and to any split of the fleet into RunShard
// ranges merged in any order. Cancelling ctx aborts the fleet with
// ctx's error.
//
// Error contract: a failure mid-fleet (a poisoned batch, ctx
// cancellation) returns the partial *Result alongside the wrapped error
// — the aggregate holds every device folded before the failure
// (Result.Agg.Devices() of them) and is byte-identical to a clean run
// of the same spec truncated to that many devices. The failed batch
// contributes nothing. Only a spec that fails validation returns a nil
// Result.
func Run(ctx context.Context, spec Spec, opts Options) (*Result, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	snapEvery := opts.SnapshotEvery
	if snapEvery <= 0 {
		snapEvery = DefaultSnapshotEvery
	}

	start := time.Now()
	agg := NewAggregate(spec)
	err := agg.run(ctx, 0, spec.Devices, opts.Workers, opts.RunProgress, func() {
		n := agg.Devices()
		if opts.Progress != nil {
			opts.Progress(n, spec.Devices)
		}
		if opts.Snapshot != nil && (n%snapEvery == 0 || n == spec.Devices) {
			opts.Snapshot(n, spec.Devices, agg.Summary())
		}
	})
	res := &Result{Spec: spec, Agg: agg, Wall: time.Since(start)}
	switch {
	case err == nil:
		return res, nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The caller abandoned the fleet; callers classify this with
		// errors.Is, so do not blame the batch that was in flight.
		return res, fmt.Errorf("fleet: cancelled after %d devices: %w", agg.Devices(), err)
	default:
		return res, fmt.Errorf("fleet: %w (aggregate holds %d)", err, agg.Devices())
	}
}

// run is the batch loop Run and RunShard share: it simulates devices
// [lo, hi) of the aggregate's spec, DefaultShardSize at a time, in the
// NoTrace mode on the sim.RunAll pool, and folds each device in index
// order, calling onDevice (when non-nil) after every fold. runProgress
// (when non-nil) sees each run with Index in fleet coordinates and
// Done/Total counted over [lo, hi).
func (a *Aggregate) run(ctx context.Context, lo, hi, workers int, runProgress func(sim.Progress), onDevice func()) error {
	spec := a.spec
	runOpts := sim.RunAllOptions{Workers: workers}
	devices := make([]Device, 0, DefaultShardSize)
	cfgs := make([]sim.Config, 0, 2*DefaultShardSize)
	for batchLo := lo; batchLo < hi; batchLo += DefaultShardSize {
		batchHi := min(batchLo+DefaultShardSize, hi)
		devices, cfgs = devices[:0], cfgs[:0]
		for i := batchLo; i < batchHi; i++ {
			d := spec.SampleDevice(i)
			devices = append(devices, d)
			base, test := spec.Config(d, spec.BasePolicy), spec.Config(d, spec.TestPolicy)
			base.NoTrace, test.NoTrace = true, true
			cfgs = append(cfgs, base, test)
		}
		if runProgress != nil {
			// Batches run one RunAll at a time, so lifting the batch's
			// progress to fleet coordinates is a fixed offset.
			index, done := 2*batchLo, 2*(batchLo-lo)
			runOpts.Progress = func(p sim.Progress) {
				p.Index += index
				p.Done += done
				p.Total = 2 * (hi - lo)
				runProgress(p)
			}
		}
		rs, err := sim.RunAll(ctx, cfgs, runOpts)
		if err != nil {
			return fmt.Errorf("devices %d–%d: %w", batchLo, batchHi-1, err)
		}
		// Fold in device order and drop the results as we go — rs is
		// the only reference keeping each run alive.
		for k, d := range devices {
			a.observe(d, rs[2*k], rs[2*k+1])
			rs[2*k], rs[2*k+1] = nil, nil
			if onDevice != nil {
				onDevice()
			}
		}
	}
	return nil
}
