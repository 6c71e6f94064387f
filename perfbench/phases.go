package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/shardexec"
	"repro/internal/sim"
)

// fleetWorkers is the in-process pool size and process count, sized
// for the two CPUs the benchmark is tuned on.
const fleetWorkers = 2

// cpuTime is user+system CPU of this process, plus that of its waited-
// for children when children is set.
func cpuTime(children bool) time.Duration {
	var total time.Duration
	who := []int{syscall.RUSAGE_SELF}
	if children {
		who = append(who, syscall.RUSAGE_CHILDREN)
	}
	for _, w := range who {
		var ru syscall.Rusage
		if err := syscall.Getrusage(w, &ru); err != nil {
			continue // unreachable on Linux; the metric then reads low
		}
		total += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return total
}

// maxRSSMB is the peak resident set of this process in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rep is one timed repetition of a fleet phase.
type rep struct {
	devices   int
	wall, cpu time.Duration
	summary   []byte
}

type fleetPhase struct {
	reps []rep
	// Traced only: every sim.Run wall, and the wall accounting summed
	// over repetitions.
	runWallsMS []float64
	account    fleetAccount
}

// fleetAccount splits traced fleet.Run wall time into the spans around
// its layers: batch sampling, the sim.RunAll pool, and the fold; runSum
// is the pool's summed per-run Wall.
type fleetAccount struct {
	wall, sample, runAll, fold, runSum time.Duration
}

func marshalSummary(s fleet.Summary) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal summary: %v", err)) // plain data
	}
	return b
}

// runFleetRep runs one in-process fleet.Run of spec and adds it to ph.
func (ph *fleetPhase) runFleetRep(ctx context.Context, spec fleet.Spec, tr *tracer) error {
	var runs []runEvent
	var folds []time.Time
	opts := fleet.Options{Workers: fleetWorkers}
	if tr != nil {
		runs = make([]runEvent, 0, 2*spec.Devices)
		folds = make([]time.Time, 0, spec.Devices)
		opts.RunProgress = func(p sim.Progress) {
			runs = append(runs, runEvent{index: p.Index, end: time.Now(), wall: p.Wall})
		}
		opts.Progress = func(done, total int) { folds = append(folds, time.Now()) }
	}
	cpu0, t0 := cpuTime(false), time.Now()
	res, err := fleet.Run(ctx, spec, opts)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("fleet.Run: %w", err)
	}
	ph.reps = append(ph.reps, rep{devices: res.Agg.Devices(), wall: t1.Sub(t0), cpu: cpuTime(false) - cpu0, summary: marshalSummary(res.Agg.Summary())})
	if tr != nil {
		ph.record(tr, spec.Devices, t0, t1, runs, folds)
	}
	return nil
}

type runEvent struct {
	index int
	end   time.Time
	wall  time.Duration
}

// record rebuilds one fleet.Run's spans from the outside. fleet.Run
// works in batches of fleet.DefaultShardSize devices: sample the batch,
// run it on the sim.RunAll pool, fold it in device order. Run
// completions (RunProgress) bound the pool span, and the fold callbacks
// (Progress) bound the fold span and the next batch's sampling.
func (ph *fleetPhase) record(tr *tracer, devices int, t0, t1 time.Time, runs []runEvent, folds []time.Time) {
	root := tr.add("fleet.run", 0, -1, t0, t1)
	acct := &ph.account
	acct.wall += t1.Sub(t0)
	byBatch := make(map[int][]runEvent)
	for _, r := range runs {
		b := r.index / 2 / fleet.DefaultShardSize
		byBatch[b] = append(byBatch[b], r)
		ph.runWallsMS = append(ph.runWallsMS, ms(r.wall))
		acct.runSum += r.wall
	}
	prev := t0
	for b := 0; b*fleet.DefaultShardSize < devices; b++ {
		hi := min((b+1)*fleet.DefaultShardSize, devices)
		rs := byBatch[b]
		if len(rs) == 0 || hi > len(folds) {
			break
		}
		first, last := rs[0].end.Add(-rs[0].wall), rs[0].end
		for _, r := range rs {
			first = minTime(first, r.end.Add(-r.wall))
			if r.end.After(last) {
				last = r.end
			}
		}
		tr.add("fleet.sample", root, int64(b), prev, first)
		pool := tr.add("sim.runall", root, int64(b), first, last)
		for _, r := range rs {
			tr.add("sim.run", pool, int64(r.index/2), r.end.Add(-r.wall), r.end)
		}
		foldEnd := folds[hi-1]
		tr.add("fleet.fold", root, int64(b), last, foldEnd)
		acct.sample += first.Sub(prev)
		acct.runAll += last.Sub(first)
		acct.fold += foldEnd.Sub(last)
		prev = foldEnd
	}
}

func minTime(a, b time.Time) time.Time {
	if b.Before(a) {
		return b
	}
	return a
}

type shardPhase struct {
	reps []rep
	// attemptMS holds each worker attempt's start → ok time; the
	// counters sum the supervisor's Result over repetitions, and
	// checkpointBytes is the last repetition's checkpoint log size.
	attemptMS               []float64
	attempts, retries, quar int
	checkpointBytes         int64
}

// runShardRep runs one supervised multi-process shardexec.Run of spec,
// with a fresh checkpoint log under dir, and adds it to ph.
func (ph *shardPhase) runShardRep(ctx context.Context, spec fleet.Spec, shardSize int, argv, env []string, dir string, tr *tracer) error {
	ckpt := filepath.Join(dir, fmt.Sprintf("checkpoint-%d.wal", len(ph.reps)))
	var events []shardEvent
	var merges []time.Time
	opts := shardexec.Options{
		Procs:      fleetWorkers,
		Workers:    1,
		ShardSize:  shardSize,
		Checkpoint: ckpt,
		WorkerArgv: argv,
		WorkerEnv:  env,
	}
	// Attempt times come from every pass: the traced pass's workers also
	// write CPU profiles, which would inflate them. shardexec serializes
	// OnShard calls.
	opts.OnShard = func(ev shardexec.ShardEvent) { events = append(events, shardEvent{ev, time.Now()}) }
	if tr != nil {
		opts.Progress = func(done, total int) { merges = append(merges, time.Now()) }
	}
	cpu0, t0 := cpuTime(true), time.Now()
	res, err := shardexec.Run(ctx, spec, opts)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("shardexec.Run: %w", err)
	}
	ph.reps = append(ph.reps, rep{devices: res.Agg.Devices(), wall: t1.Sub(t0), cpu: cpuTime(true) - cpu0, summary: marshalSummary(res.Agg.Summary())})
	ph.attempts += res.Attempts
	ph.retries += res.Retries
	ph.quar += len(res.Quarantined)
	info, err := os.Stat(ckpt)
	if err != nil {
		return err
	}
	ph.checkpointBytes = info.Size()
	if err := os.Remove(ckpt); err != nil {
		return err
	}
	ph.record(tr, t0, t1, events, merges)
	return nil
}

type shardEvent struct {
	ev shardexec.ShardEvent
	at time.Time
}

// record collects the attempt times (start → ok) from the supervisor's
// OnShard lifecycle events and turns them into attempt spans, and its
// merge callbacks into merge spans.
func (ph *shardPhase) record(tr *tracer, t0, t1 time.Time, events []shardEvent, merges []time.Time) {
	root := tr.add("shardexec.run", 0, -1, t0, t1)
	started := make(map[[2]int]time.Time)
	okAt := make(map[int]time.Time)
	for _, e := range events {
		k := [2]int{e.ev.Index, e.ev.Attempt}
		switch e.ev.State {
		case "start":
			started[k] = e.at
		case "ok":
			tr.add("shardexec.attempt", root, int64(e.ev.Index), started[k], e.at)
			ph.attemptMS = append(ph.attemptMS, ms(e.at.Sub(started[k])))
			okAt[e.ev.Index] = e.at
		}
	}
	prev := t0
	for i, at := range merges {
		from := okAt[i]
		if from.Before(prev) {
			from = prev
		}
		tr.add("fleet.merge", root, int64(i), from, at)
		prev = at
	}
}
