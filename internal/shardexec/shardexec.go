package shardexec

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/sim"
)

// Defaults for the supervisor knobs.
const (
	// DefaultShardSize is the device range per worker process. It is
	// deliberately much larger than fleet.DefaultShardSize (the
	// in-process batch size): a process carries fork/exec and
	// serialization overhead, so shards are coarse and workers batch
	// internally.
	DefaultShardSize = 2048
	// DefaultMaxAttempts is how many times a shard runs before it is
	// quarantined.
	DefaultMaxAttempts = 3
	// DefaultRetryBackoff is the pause before the first retry; it
	// doubles per retry up to maxRetryBackoff.
	DefaultRetryBackoff = 250 * time.Millisecond
	maxRetryBackoff     = 5 * time.Second
)

// Options tune a fleet run. Procs chooses the execution: 0 runs the
// fleet in this process on the fleet.Run pool, > 0 supervises that many
// worker processes. The fields marked "worker processes only" are
// ignored in-process, except Checkpoint, Resume and WorkerTimeout, which
// are errors there.
type Options struct {
	// Procs bounds concurrently running worker processes (never more
	// than the shard count); 0 means in-process, < 0 is an error.
	Procs int
	// ShardSize is the device range per worker process; ≤ 0 means
	// DefaultShardSize. A resumed run must use the checkpoint's value.
	// Worker processes only.
	ShardSize int
	// Workers bounds the sim pool — this process's in-process, each
	// worker's otherwise; ≤ 0 means GOMAXPROCS of the process running
	// the pool.
	Workers int
	// WorkerTimeout is the per-attempt deadline; a worker still running
	// when it expires is killed and the attempt counts as failed. ≤ 0
	// means no deadline. Worker processes only.
	WorkerTimeout time.Duration
	// MaxAttempts is how many times one shard may run before being
	// quarantined; ≤ 0 means DefaultMaxAttempts. Worker processes only.
	MaxAttempts int
	// RetryBackoff is the pause before a shard's first retry, doubling
	// per retry (capped); ≤ 0 means DefaultRetryBackoff. Worker
	// processes only.
	RetryBackoff time.Duration
	// Checkpoint, when non-empty, is the path of the append-only
	// checkpoint log. An interrupted run restarted with Resume re-runs
	// only the shards the log is missing. Worker processes only.
	Checkpoint string
	// Resume loads an existing checkpoint at Checkpoint instead of
	// truncating it. Every logged frame must be of this spec and in this
	// run's plan (so the shard size must match); a file in any other
	// format is an error and is left untouched. A missing or empty file
	// starts fresh. Worker processes only.
	Resume bool
	// WorkerArgv is the child command line; empty means the current
	// executable with the single argument "-shardworker" (the wakesim
	// protocol). Tests point this at a re-executed test binary. Worker
	// processes only.
	WorkerArgv []string
	// WorkerEnv entries are appended to the parent environment for each
	// worker. Worker processes only.
	WorkerEnv []string
	// Progress, when non-nil, is called with the devices folded so far
	// and the fleet size from one goroutine: after every device
	// in-process, in device order; after every shard merge with worker
	// processes, in completion order.
	Progress func(done, total int)
	// RunProgress, when non-nil, receives every simulation run's
	// completion in fleet-global coordinates (fleet.Options.RunProgress).
	// In-process only: worker processes report whole shards.
	RunProgress func(sim.Progress)
	// Snapshot, when non-nil, receives a Summary of the folded devices
	// each time their count reaches or crosses a multiple of
	// SnapshotEvery, and after the last device. With worker processes the
	// folded devices are the shards merged so far, in completion order.
	Snapshot func(done, total int, s fleet.Summary)
	// SnapshotEvery is in devices; ≤ 0 means fleet.DefaultSnapshotEvery.
	// With worker processes a snapshot can only follow a shard merge, so
	// one merge that crosses several multiples emits one snapshot.
	SnapshotEvery int
	// OnShard, when non-nil, observes the per-shard lifecycle (start,
	// ok, retry, quarantine, cached). Calls may arrive from worker
	// goroutines; they are serialized by an internal lock. Worker
	// processes only.
	OnShard func(ev ShardEvent)
}

// ShardEvent is one observable transition in a shard's lifecycle.
type ShardEvent struct {
	Index, Lo, Hi int
	// Attempt is the attempt the event refers to (0 for "cached").
	Attempt int
	// State is one of "start", "ok", "retry", "quarantine", "cached".
	State string
	// Err carries the failure text for "retry" and "quarantine".
	Err string
}

// Result is a finished (or partially finished) fleet run. The
// worker-process counters, Shards through Quarantined, stay zero
// in-process.
type Result struct {
	Spec fleet.Spec
	// Agg holds the merged aggregate: the whole fleet on success; on
	// quarantine or cancellation, every shard that completed (in-process,
	// the devices folded before the failure).
	Agg *fleet.Aggregate
	// Shards is the plan size; Completed counts shards merged into Agg,
	// resumed ones included.
	Shards, Completed int
	// Resumed counts shards recovered from the checkpoint instead of
	// re-run.
	Resumed int
	// Attempts counts worker processes launched; Retries counts the
	// attempts beyond each shard's first. A crash-free run has
	// Attempts == Shards - Resumed and Retries == 0.
	Attempts, Retries int
	// Quarantined lists shard indices that exhausted their attempts.
	Quarantined []int
	Wall        time.Duration
}

// shardResult crosses from a worker goroutine back to the supervisor.
type shardResult struct {
	index    int
	frame    []byte
	sa       *fleet.ShardAggregate
	attempts int
	err      error
	// skipped marks jobs drained after an abort; they consumed no
	// attempts and carry no error.
	skipped bool
}

// Run executes the spec's fleet — in this process when opts.Procs is 0,
// across supervised worker processes when it is positive — and is the
// one place that choice is made. Worker shard results merge exactly in
// completion order, so the Summary of the returned aggregate is
// byte-identical to an in-process run of the same spec regardless of
// Procs, ShardSize, worker crashes, retries, or a checkpoint resume in
// the middle. Each planned shard merges at most once, and a worker reply
// or checkpoint frame computed for another spec or whose (Index, Lo, Hi)
// is not in the plan is rejected.
//
// Error contract: a failed or quarantined shard or a cancelled context
// returns the partial *Result alongside the error. In-process the
// aggregate holds the devices folded before the failure (fleet.Run's
// contract); with worker processes it holds every shard that completed,
// and the error joins every quarantined shard's attempt errors.
// Cancellation is classified: errors.Is(err, context.Canceled) (or
// DeadlineExceeded) identifies a caller abort rather than a shard
// failure. Only a spec, options or checkpoint failure returns a nil
// Result.
func Run(ctx context.Context, spec fleet.Spec, opts Options) (*Result, error) {
	switch {
	case opts.Procs < 0:
		return nil, fmt.Errorf("shardexec: Procs %d: want 0 (in-process) or a positive process count", opts.Procs)
	case opts.Procs > 0:
		return supervise(ctx, spec, opts)
	case opts.Checkpoint != "" || opts.Resume || opts.WorkerTimeout > 0:
		return nil, errors.New("shardexec: Checkpoint, Resume and WorkerTimeout need worker processes (Procs > 0)")
	}
	r, err := fleet.Run(ctx, spec, fleet.Options{
		Workers:       opts.Workers,
		Progress:      opts.Progress,
		RunProgress:   opts.RunProgress,
		Snapshot:      opts.Snapshot,
		SnapshotEvery: opts.SnapshotEvery,
	})
	if r == nil {
		return nil, err
	}
	return &Result{Spec: r.Spec, Agg: r.Agg, Wall: r.Wall}, err
}

// supervise is Run across opts.Procs worker processes.
func supervise(ctx context.Context, spec fleet.Spec, opts Options) (*Result, error) {
	start := time.Now()
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	shardSize := opts.ShardSize
	if shardSize <= 0 {
		shardSize = DefaultShardSize
	}
	maxAttempts := opts.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = DefaultMaxAttempts
	}
	backoff0 := opts.RetryBackoff
	if backoff0 <= 0 {
		backoff0 = DefaultRetryBackoff
	}
	snapEvery := opts.SnapshotEvery
	if snapEvery <= 0 {
		snapEvery = fleet.DefaultSnapshotEvery
	}
	argv := opts.WorkerArgv
	if len(argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("shardexec: locate worker executable: %w", err)
		}
		argv = []string{exe, "-shardworker"}
	}

	shards := (spec.Devices + shardSize - 1) / shardSize
	procs := min(opts.Procs, shards)

	var onShardMu sync.Mutex
	emit := func(ev ShardEvent) {
		if opts.OnShard != nil {
			onShardMu.Lock()
			opts.OnShard(ev)
			onShardMu.Unlock()
		}
	}
	rangeOf := func(index int) (lo, hi int) {
		lo = index * shardSize
		hi = lo + shardSize
		if hi > spec.Devices {
			hi = spec.Devices
		}
		return lo, hi
	}

	res := &Result{Spec: spec, Shards: shards, Agg: fleet.NewAggregate(spec)}
	hash := fleet.SpecHash(spec)
	merged := make([]bool, shards)
	// merge folds one completed shard in whatever order it arrives. The
	// shard must be of this spec and in the plan; one already merged is
	// skipped, so no device range is ever counted twice.
	merge := func(sa *fleet.ShardAggregate) (bool, error) {
		if sa.SpecHash != hash {
			return false, fmt.Errorf("shardexec: shard %d was computed for a different spec", sa.Index)
		}
		if sa.Index < 0 || sa.Index >= shards {
			return false, fmt.Errorf("shardexec: shard %d is not in the %d-shard plan for shard size %d", sa.Index, shards, shardSize)
		}
		if lo, hi := rangeOf(sa.Index); sa.Lo != lo || sa.Hi != hi {
			return false, fmt.Errorf("shardexec: shard %d covers [%d, %d), the plan for shard size %d says [%d, %d)", sa.Index, sa.Lo, sa.Hi, shardSize, lo, hi)
		}
		if merged[sa.Index] {
			return false, nil
		}
		before := res.Agg.Devices()
		if err := res.Agg.MergeShard(sa); err != nil {
			return false, err
		}
		merged[sa.Index] = true
		res.Completed++
		n := res.Agg.Devices()
		if opts.Progress != nil {
			opts.Progress(n, spec.Devices)
		}
		if opts.Snapshot != nil && (n/snapEvery > before/snapEvery || n == spec.Devices) {
			opts.Snapshot(n, spec.Devices, res.Agg.Summary())
		}
		return true, nil
	}

	var ck *os.File
	if opts.Checkpoint != "" {
		var recovered []*fleet.ShardAggregate
		var err error
		ck, recovered, err = openCheckpoint(opts.Checkpoint, opts.Resume)
		if err != nil {
			return nil, err
		}
		defer ck.Close()
		for _, sa := range recovered {
			ok, err := merge(sa)
			if err != nil {
				return nil, fmt.Errorf("shardexec: checkpoint %s: %w", opts.Checkpoint, err)
			}
			if ok {
				res.Resumed++
				emit(ShardEvent{Index: sa.Index, Lo: sa.Lo, Hi: sa.Hi, State: "cached"})
			}
		}
	}

	// The plan: every shard not recovered from the checkpoint.
	var todo []int
	for i, done := range merged {
		if !done {
			todo = append(todo, i)
		}
	}

	jobs := make(chan int)
	results := make(chan shardResult)
	var aborted atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				if aborted.Load() || ctx.Err() != nil {
					results <- shardResult{index: idx, skipped: true}
					continue
				}
				lo, hi := rangeOf(idx)
				m := NewManifest(spec, idx, lo, hi, opts.Workers)
				results <- runShardProcess(ctx, m, argv, opts.WorkerEnv, opts.WorkerTimeout, maxAttempts, backoff0, emit)
			}
		}()
	}
	go func() {
		for _, idx := range todo {
			jobs <- idx
		}
		close(jobs)
	}()

	var mergeErr error
	fail := func(err error) {
		if mergeErr == nil {
			mergeErr = err
			aborted.Store(true)
		}
	}
	var quarantineErrs []error
	cancelled := false
	for received := 0; received < len(todo); received++ {
		r := <-results
		if r.skipped {
			// A shard skipped after the caller cancelled never ran: the
			// run is cancelled even when no in-flight attempt saw it.
			cancelled = cancelled || ctx.Err() != nil
			continue
		}
		res.Attempts += r.attempts
		if r.attempts > 1 {
			res.Retries += r.attempts - 1
		}
		if r.err != nil {
			if errors.Is(r.err, context.Canceled) || errors.Is(r.err, context.DeadlineExceeded) {
				cancelled = true
			} else {
				res.Quarantined = append(res.Quarantined, r.index)
				quarantineErrs = append(quarantineErrs, fmt.Errorf("shard %d: %w", r.index, r.err))
			}
			// Either way no more dispatching: the run has failed.
			aborted.Store(true)
			continue
		}
		// Only a merged shard reaches the checkpoint, so every frame a
		// resume reads is one this plan accepted.
		if _, err := merge(r.sa); err != nil {
			fail(err)
		} else if ck != nil {
			if err := appendFrame(ck, r.frame); err != nil {
				fail(err)
			}
		}
	}
	wg.Wait()
	close(results)
	res.Wall = time.Since(start)

	sort.Ints(res.Quarantined)
	switch {
	case mergeErr != nil:
		return res, fmt.Errorf("shardexec: merge failed after %d devices: %w", res.Agg.Devices(), mergeErr)
	case cancelled && len(quarantineErrs) == 0:
		return res, fmt.Errorf("shardexec: cancelled after %d devices: %w", res.Agg.Devices(), context.Cause(ctx))
	case len(quarantineErrs) > 0:
		return res, fmt.Errorf("shardexec: %d of %d shards quarantined (aggregate holds %d devices): %w",
			len(res.Quarantined), shards, res.Agg.Devices(), errors.Join(quarantineErrs...))
	default:
		return res, nil
	}
}

// runShardProcess executes one shard to completion: launch a worker,
// validate its output, retry with capped exponential backoff on any
// failure, and quarantine after maxAttempts. A cancelled parent context
// is reported as cancellation, never as a shard failure.
func runShardProcess(ctx context.Context, m Manifest, argv, env []string, timeout time.Duration, maxAttempts int, backoff0 time.Duration, emit func(ShardEvent)) shardResult {
	var attemptErrs []error
	backoff := backoff0
	for attempt := 1; ; attempt++ {
		m.Attempt = attempt
		emit(ShardEvent{Index: m.Index, Lo: m.Lo, Hi: m.Hi, Attempt: attempt, State: "start"})
		frame, sa, err := runWorkerAttempt(ctx, m, argv, env, timeout)
		if err == nil {
			emit(ShardEvent{Index: m.Index, Lo: m.Lo, Hi: m.Hi, Attempt: attempt, State: "ok"})
			return shardResult{index: m.Index, frame: frame, sa: sa, attempts: attempt}
		}
		if ctx.Err() != nil {
			// The parent gave up; the attempt's failure is a symptom,
			// not a shard fault.
			return shardResult{index: m.Index, attempts: attempt, err: context.Cause(ctx)}
		}
		attemptErrs = append(attemptErrs, fmt.Errorf("attempt %d: %w", attempt, err))
		if attempt >= maxAttempts {
			emit(ShardEvent{Index: m.Index, Lo: m.Lo, Hi: m.Hi, Attempt: attempt, State: "quarantine", Err: err.Error()})
			return shardResult{index: m.Index, attempts: attempt, err: errors.Join(attemptErrs...)}
		}
		emit(ShardEvent{Index: m.Index, Lo: m.Lo, Hi: m.Hi, Attempt: attempt, State: "retry", Err: err.Error()})
		select {
		case <-ctx.Done():
			return shardResult{index: m.Index, attempts: attempt, err: context.Cause(ctx)}
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > maxRetryBackoff {
			backoff = maxRetryBackoff
		}
	}
}

// stderrLimit bounds how much worker stderr is kept for error messages.
const stderrLimit = 4 << 10

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	max int
	b   []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.b = append(t.b, p...)
	if len(t.b) > t.max {
		t.b = t.b[len(t.b)-t.max:]
	}
	return len(p), nil
}

// runWorkerAttempt launches one worker process for the manifest and
// validates everything about its reply: exit status, frame integrity
// (magic, version, checksum), and that the shard is the one that was
// asked for.
func runWorkerAttempt(ctx context.Context, m Manifest, argv, env []string, timeout time.Duration) ([]byte, *fleet.ShardAggregate, error) {
	actx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	stdin, err := m.Encode()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.CommandContext(actx, argv[0], argv[1:]...)
	cmd.Stdin = bytes.NewReader(stdin)
	var stdout bytes.Buffer
	stderr := &tailBuffer{max: stderrLimit}
	cmd.Stdout = &stdout
	cmd.Stderr = stderr
	cmd.Env = append(os.Environ(), env...)
	// A killed worker whose pipes are still open must not wedge Wait.
	cmd.WaitDelay = time.Second
	if err := cmd.Run(); err != nil {
		if actx.Err() != nil && ctx.Err() == nil {
			return nil, nil, fmt.Errorf("worker exceeded %v deadline (killed)", timeout)
		}
		msg := bytes.TrimSpace(stderr.b)
		if len(msg) > 0 {
			return nil, nil, fmt.Errorf("worker failed: %w: %s", err, msg)
		}
		return nil, nil, fmt.Errorf("worker failed: %w", err)
	}
	frame := stdout.Bytes()
	sa, err := fleet.DecodeShard(frame)
	if err != nil {
		return nil, nil, fmt.Errorf("worker output rejected: %w", err)
	}
	if sa.Index != m.Index || sa.Lo != m.Lo || sa.Hi != m.Hi {
		return nil, nil, fmt.Errorf("worker returned shard %d [%d, %d), want %d [%d, %d)", sa.Index, sa.Lo, sa.Hi, m.Index, m.Lo, m.Hi)
	}
	if hex.EncodeToString(sa.SpecHash[:]) != m.SpecHash {
		return nil, nil, fmt.Errorf("worker returned shard for a different spec")
	}
	return frame, sa, nil
}
