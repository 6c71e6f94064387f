package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/alarm"
	"repro/internal/backend"
	"repro/internal/fleet"
	"repro/internal/httpapi"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Sizes of the traced run's direct layer measurements.
const (
	layerSampleDevices = 512
	layerShardDevices  = 256
	layerSerialDevices = 24
	layerRetainedRuns  = 16
	layerBackendDevs   = 64
	// layerMinTime is how long a repeated micro-measurement loops at least.
	layerMinTime = 200 * time.Millisecond
)

// timeLoop calls fn until at least layerMinTime has passed and returns
// the mean time per call.
func timeLoop(fn func()) time.Duration {
	var n int
	start := time.Now()
	for n == 0 || time.Since(start) < layerMinTime {
		fn()
		n++
	}
	return time.Since(start) / time.Duration(n)
}

// allocs measures the heap allocations and bytes of fn.
func allocs(fn func()) (count, bytes uint64) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// measureLayers times the public functions of each layer directly, one
// call site at a time, on inputs from the workload's population. It
// runs after the traced pass, when nothing else competes for the CPU.
func measureLayers(ctx context.Context, spec fleet.Spec, shardSize int, m map[string]float64) error {
	spec = spec.WithDefaults()

	// fleet: sampling, then one shard's codec and fold.
	n := min(layerSampleDevices, spec.Devices)
	per := timeLoop(func() {
		for i := 0; i < n; i++ {
			d := spec.SampleDevice(i)
			spec.Config(d, spec.BasePolicy)
			spec.Config(d, spec.TestPolicy)
		}
	})
	m["fleet.sample_us_per_device"] = us(per) / float64(n)

	n = min(layerShardDevices, spec.Devices)
	sa, err := fleet.RunShard(ctx, spec, 0, n, fleetWorkers)
	if err != nil {
		return fmt.Errorf("RunShard: %w", err)
	}
	var frame []byte
	m["fleet.encode_us_per_device"] = us(timeLoop(func() { frame = fleet.EncodeShard(sa) })) / float64(n)
	m["fleet.decode_us_per_device"] = us(timeLoop(func() {
		if _, err = fleet.DecodeShard(frame); err != nil {
			panic(err) // a frame just encoded must decode
		}
	})) / float64(n)
	m["fleet.shard_bytes_per_device"] = float64(len(frame)) / float64(n)
	var agg *fleet.Aggregate
	m["fleet.fold_us_per_device"] = us(timeLoop(func() {
		agg = fleet.NewAggregate(spec)
		if err = agg.MergeShard(sa); err != nil {
			panic(err) // the shard was computed from this spec
		}
		agg.Summary()
	})) / float64(n)
	m["fleet.state_bytes"] = float64(len(agg.EncodeState()))

	// shardexec overhead baseline: every shard's range simulated
	// in-process on one worker, two shards at a time, as the two worker
	// processes run them.
	var inproc []float64
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < fleetWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := range next {
				t0 := time.Now()
				_, rerr := fleet.RunShard(ctx, spec, lo, min(lo+shardSize, spec.Devices), 1)
				mu.Lock()
				inproc = append(inproc, ms(time.Since(t0)))
				if rerr != nil {
					err = rerr
				}
				mu.Unlock()
			}
		}()
	}
	for lo := 0; lo < spec.Devices; lo += shardSize {
		next <- lo
	}
	close(next)
	wg.Wait()
	if err != nil {
		return fmt.Errorf("RunShard: %w", err)
	}
	m["shardexec.inprocess_ms_per_shard"] = median(inproc)

	// sim: serial NoTrace runs of sampled device configurations.
	var cfgs []sim.Config
	for i := 0; i < layerSerialDevices; i++ {
		d := spec.SampleDevice(i)
		for _, p := range []string{spec.BasePolicy, spec.TestPolicy} {
			c := spec.Config(d, p)
			c.NoTrace = true
			cfgs = append(cfgs, c)
		}
	}
	var wall time.Duration
	var deliveries int
	count, bytes := allocs(func() {
		for _, c := range cfgs {
			t0 := time.Now()
			r, rerr := sim.Run(c)
			wall += time.Since(t0)
			if rerr != nil {
				err = rerr
				return
			}
			deliveries += r.DelaysAll.PerceptibleN + r.DelaysAll.ImperceptibleN
		}
	})
	if err != nil {
		return fmt.Errorf("sim.Run: %w", err)
	}
	m["sim.allocs_per_run"] = float64(count) / float64(len(cfgs))
	m["sim.kb_per_run"] = float64(bytes) / 1024 / float64(len(cfgs))
	m["sim.deliveries_per_run"] = float64(deliveries) / float64(len(cfgs))
	m["sim.ns_per_delivery"] = float64(wall.Nanoseconds()) / float64(max(deliveries, 1))

	// sim retained path: the service's single runs keep their Records.
	var retainedMS []float64
	var recs []alarm.Record
	count, _ = allocs(func() {
		for i := 0; i < layerRetainedRuns; i++ {
			rs := httpapi.RunSpec{Workload: []string{"light", "heavy"}[i%2],
				Policy: []string{"NATIVE", "SIMTY"}[i/2%2], Hours: 3, Seed: int64(1 + i)}
			cfg, cerr := rs.Config()
			if cerr != nil {
				err = cerr
				return
			}
			t0 := time.Now()
			r, rerr := sim.Run(cfg)
			retainedMS = append(retainedMS, ms(time.Since(t0)))
			if rerr != nil {
				err = rerr
				return
			}
			if len(r.Records) > len(recs) {
				recs = r.Records
			}
		}
	})
	if err != nil {
		return fmt.Errorf("retained sim.Run: %w", err)
	}
	m["sim.retained.run_ms_p50"] = median(retainedMS)
	m["sim.retained.allocs_per_run"] = float64(count) / layerRetainedRuns

	// metrics: replay the largest retained run's records through the
	// exported streaming accumulators the simulator folds them into.
	replay := func() {
		var app, all metrics.DelayAcc
		var guard metrics.GuaranteeAcc
		var gaps metrics.GapAcc
		wk, sv, aoi := metrics.NewWakeupAcc(), metrics.NewSpkVibAcc(), metrics.NewAoIAcc()
		for _, r := range recs {
			app.Add(r)
			aoi.Add(r)
			all.Add(r)
			wk.Add(r)
			sv.Add(r)
			guard.Add(r)
			gaps.Add(r)
		}
	}
	perReplay := timeLoop(replay)
	count, _ = allocs(replay)
	m["metrics.ns_per_record"] = float64(perReplay.Nanoseconds()) / float64(len(recs))
	m["metrics.allocs_per_record"] = float64(count) / float64(len(recs))

	// backend: per-device histogram merge and the server replay, on the
	// synchronized backend population (every workload measures it).
	herd := herdSpec()
	herd.Devices, herd.Seed = layerBackendDevs, spec.Seed
	var bcfgs []sim.Config
	for i := 0; i < herd.Devices; i++ {
		c := herd.Config(herd.SampleDevice(i), herd.TestPolicy)
		c.NoTrace = true
		bcfgs = append(bcfgs, c)
	}
	brs, err := sim.RunAll(ctx, bcfgs, sim.RunAllOptions{Workers: fleetWorkers})
	if err != nil {
		return fmt.Errorf("backend runs: %w", err)
	}
	model := herd.Backend.WithDefaults()
	var total *backend.Histogram
	per = timeLoop(func() {
		total = backend.NewHistogram(model.BucketWidth)
		for _, r := range brs {
			total.Merge(r.Backend.Hist)
		}
	})
	m["backend.hist_merge_us_per_device"] = us(per) / float64(len(brs))
	m["backend.serve_ms"] = ms(timeLoop(func() { backend.Serve(total, model) }))
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
