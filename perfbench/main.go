// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload — a device population — through the
// three ways a user waits on the simulator: an in-process fleet
// (fleet.Run), a supervised multi-process fleet (shardexec.Run, with
// this binary re-executed as the shard worker) and the HTTP/SSE
// service under an open-loop request mix. It checks the outputs and
// prints every metric by name with its unit; the last line of standard
// output is one JSON object with the results.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload fleet-steady --seed 1 --seconds 40 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 repeats the same
// run with spans and a CPU profile recorded, measures each layer's
// public functions directly, and reports the per-layer metrics and the
// tracing overhead. Spans are written under .bench_build/perfbench.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/httpapi"
	"repro/internal/shardexec"
)

// workerArg makes the binary act as a shardexec worker process.
const workerArg = "--shard-worker"

// workerDirEnv, set in a worker's environment by the traced pass, names
// the directory the worker writes its CPU profile and peak RSS to.
const workerDirEnv = "PERFBENCH_WORKER_DIR"

// outDir holds checkpoints, worker profiles and span files, inside the
// checkout the benchmark runs from.
const outDir = ".bench_build/perfbench"

// setupReps is how many times set-up is measured; its median is setup_s.
const setupReps = 15

func main() {
	if len(os.Args) > 1 && os.Args[1] == workerArg {
		os.Exit(workerMain())
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workerMain is the shard-worker process body. In the traced pass it
// also records its CPU profile and its peak RSS for the supervisor.
func workerMain() int {
	dir := os.Getenv(workerDirEnv)
	if dir == "" {
		return shardexec.WorkerMain(context.Background(), os.Stdin, os.Stdout, os.Stderr)
	}
	base := filepath.Join(dir, fmt.Sprintf("worker-%d", os.Getpid()))
	f, err := os.Create(base + ".pprof")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	code := shardexec.WorkerMain(context.Background(), os.Stdin, os.Stdout, os.Stderr)
	pprof.StopCPUProfile()
	// getrusage's maxrss would include the parent's pages shared before
	// exec; VmHWM is this process's own high-water mark.
	hwm, err := vmHWMKB()
	if err == nil {
		err = os.WriteFile(base+".rss", []byte(strconv.FormatInt(hwm, 10)), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return code
}

// vmHWMKB reads this process's peak resident set size in KiB.
func vmHWMKB() (int64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 40, "measured seconds per pass")
	fs.IntVar(&o.trace, "trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloadByName(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 || o.seconds > 600 {
		return o, fmt.Errorf("--seconds %d outside [1, 600]", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	return o, nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := bench(context.Background(), o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", blob)
	return 0
}

// runner holds one invocation's fixed inputs.
type runner struct {
	w    workload
	spec fleet.Spec // population with Devices and Seed set
	seed int64
	argv []string // shard-worker command line
	dir  string
	// loDur and hiDur are the open-loop time per round at each rate.
	loDur, hiDur time.Duration
}

// pass is one run of all three phases.
type pass struct {
	fleet *fleetPhase
	shard *shardPhase
	svc   *svcPhase
}

func bench(ctx context.Context, o options, out io.Writer) (*result, error) {
	w, _ := workloadByName(o.workload)
	dir, err := filepath.Abs(outDir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate worker executable: %w", err)
	}
	r := &runner{w: w, seed: o.seed, argv: []string{exe, workerArg}, dir: dir}
	r.spec = w.spec
	r.spec.Devices, r.spec.Seed = w.devices, o.seed
	// About 70% of --seconds is service load, enough for over 1,000
	// single runs at each rate; the fleet repetitions take about the rest
	// on this population's sizing.
	s := time.Duration(o.seconds) * time.Second
	r.loDur, r.hiDur = s*9/20/rounds, s*11/40/rounds

	var setups []float64
	for i := 0; i < setupReps; i++ {
		d, err := r.setup(ctx)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}

	plain, err := r.pass(ctx, nil)
	if err != nil {
		return nil, err
	}
	e2e := r.endToEnd(plain, median(setups))
	problems := r.check(plain, out)
	zw, zsum, err := checkZeroWakeLatency(ctx, o.seed)
	if err != nil {
		return nil, err
	}
	problems = append(problems, zw...)
	fmt.Fprintf(out, "summary sha256 zero-wake-latency %x\n", sha256.Sum256(zsum))
	acc, err := accuracyLine()
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(out, acc)
	sort.Float64s(setups)
	fmt.Fprintf(out, "setup: n=%d min %.4f median %.4f max %.4f s\n", len(setups), setups[0], median(setups), setups[len(setups)-1])
	printEndToEnd(out, plain, e2e)
	// A 202 whose body is already running or done is the run store's
	// known submit race: the request succeeded, so it is counted here and
	// not as a failure.
	for _, f := range plain.svc.failures {
		fmt.Fprintln(out, "failed", f)
	}
	fmt.Fprintf(out, "runstore.nonpending_202: %d of %d requests\n", plain.svc.nonpending, plain.svc.requests)

	res := &result{Correct: len(problems) == 0, Metrics: map[string]metricValue{}}
	res.Attempted, res.Failed = plain.ops()
	if o.trace == 0 {
		for _, d := range endToEndDefs {
			res.Metrics[d.name] = metricValue{e2e[d.name], d.unit}
		}
	} else {
		layers, err := r.traced(ctx, o, plain, e2e, out)
		if err != nil {
			return nil, err
		}
		for _, d := range perLayerDefs {
			res.Metrics[d.name] = metricValue{layers[d.name], d.unit}
		}
		res.Attempted += int(layers["ops_attempted"])
		res.Failed += int(layers["ops_failed"])
	}
	for _, p := range problems {
		fmt.Fprintln(out, "CHECK FAILED:", p)
	}
	return res, nil
}

// setup is what a user pays before the first result: spec validation,
// locating the worker executable, starting the server, and one warm-up
// operation through each path (an HTTP single run, a worker process).
func (r *runner) setup(ctx context.Context) (time.Duration, error) {
	t0 := time.Now()
	if err := r.spec.WithDefaults().Validate(); err != nil {
		return 0, err
	}
	if _, err := os.Executable(); err != nil {
		return 0, err
	}
	srv, err := startServer()
	if err != nil {
		return 0, err
	}
	client := newClient()
	warm := &svcRequest{run: httpapi.RunSpec{Workload: "heavy", Hours: 3, Seed: 1}}
	warm.body = mustJSON(warm.run)
	werr := doRequest(ctx, client, srv.base, warm, t0)
	client.CloseIdleConnections()
	if err := srv.close(); err != nil {
		return 0, err
	}
	if werr != nil {
		return 0, fmt.Errorf("warm-up request: %w", werr)
	}
	tiny := r.spec
	tiny.Devices = 2
	if _, err := shardexec.Run(ctx, tiny, shardexec.Options{Procs: 1, Workers: 1, ShardSize: 2, WorkerArgv: r.argv}); err != nil {
		return 0, fmt.Errorf("warm-up worker: %w", err)
	}
	return time.Since(t0), nil
}

// rounds is how many times a pass cycles through its phases. Spreading
// each phase over the pass, instead of running it in one block, keeps a
// slow spell of the host from landing on one metric only, and the
// fleet metrics take their median across rounds.
const rounds = 10

// pass runs rounds × (one fleet.Run, one shardexec.Run, a lo-rate and a
// hi-rate chunk of service load).
func (r *runner) pass(ctx context.Context, tr *tracer) (*pass, error) {
	p := &pass{fleet: &fleetPhase{}, shard: &shardPhase{}}
	var env []string
	if tr != nil {
		env = []string{workerDirEnv + "=" + r.dir}
	}
	p.svc = newSvcPhase(r.spec, r.seed, tr)
	for i := 0; i < rounds; i++ {
		if err := p.fleet.runFleetRep(ctx, r.spec, tr); err != nil {
			return nil, err
		}
		if err := p.shard.runShardRep(ctx, r.spec, r.w.shardSize, r.argv, env, r.dir, tr); err != nil {
			return nil, err
		}
		for _, phase := range []struct {
			name string
			dur  time.Duration
		}{{"lo", r.loDur}, {"hi", r.hiDur}} {
			if err := p.svc.runChunk(ctx, phase.name, phase.dur); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// ops counts the operations a pass attempted (devices folded and
// requests sent) and those that failed.
func (p *pass) ops() (attempted, failed int) {
	for _, rp := range p.fleet.reps {
		attempted += rp.devices
	}
	for _, rp := range p.shard.reps {
		attempted += rp.devices
	}
	return attempted + p.svc.requests, p.svc.failed
}

func (r *runner) endToEnd(p *pass, setup float64) map[string]float64 {
	m := map[string]float64{"setup_s": setup, "rss_peak_mb": maxRSSMB()}
	m["fleet.devices_per_s"], m["fleet.cpu_ms_per_device"] = repRates(p.fleet.reps)
	m["sharded.devices_per_s"], m["sharded.cpu_ms_per_device"] = repRates(p.shard.reps)
	lo, hi := summarize(p.svc.loLat), summarize(p.svc.hiLat)
	m["svc.lo.p50_ms"], m["svc.lo.p99_ms"] = lo.p50, lo.p99
	m["svc.hi.p50_ms"], m["svc.hi.p99_ms"] = hi.p50, hi.p99
	m["svc.fleet.p50_ms"] = summarize(p.svc.fleetLat).p50
	m["svc.cpu_ms_per_request"] = p.svc.cpuPerRequest()
	m["svc.hi.goodput_rps"] = p.svc.goodput()
	return m
}

// repRates is the median over repetitions of devices per second and of
// CPU milliseconds per device.
func repRates(reps []rep) (perSec, cpuMS float64) {
	var rates, cpus []float64
	for _, rp := range reps {
		rates = append(rates, float64(rp.devices)/rp.wall.Seconds())
		cpus = append(cpus, ms(rp.cpu)/float64(rp.devices))
	}
	return median(rates), median(cpus)
}

// check runs the output checks that need a whole pass.
func (r *runner) check(p *pass, out io.Writer) []string {
	problems := checkReps("fleet", p.fleet.reps, r.spec.Devices)
	problems = append(problems, checkReps("sharded", p.shard.reps, r.spec.Devices)...)
	if !bytes.Equal(p.shard.reps[0].summary, p.fleet.reps[0].summary) {
		problems = append(problems, "sharded Summary differs from the in-process fleet.Run of the same spec")
	}
	problems = append(problems, p.svc.problems...)
	fmt.Fprintf(out, "summary sha256 fleet %x\n", sha256.Sum256(p.fleet.reps[0].summary))
	fmt.Fprintf(out, "summary sha256 sharded %x\n", sha256.Sum256(p.shard.reps[0].summary))
	return problems
}

func printEndToEnd(out io.Writer, p *pass, m map[string]float64) {
	for _, ph := range []struct {
		name string
		reps []rep
	}{{"fleet", p.fleet.reps}, {"sharded", p.shard.reps}} {
		fmt.Fprintf(out, "%s: %d reps of %d devices; devices/s", ph.name, len(ph.reps), ph.reps[0].devices)
		for _, rp := range ph.reps {
			fmt.Fprintf(out, " %.0f", float64(rp.devices)/rp.wall.Seconds())
		}
		fmt.Fprint(out, "; CPU ms/device")
		for _, rp := range ph.reps {
			fmt.Fprintf(out, " %.3f", ms(rp.cpu)/float64(rp.devices))
		}
		fmt.Fprintln(out)
	}
	for _, set := range []struct {
		name string
		xs   []float64
	}{
		{"svc.lo single", p.svc.loLat},
		{"svc.hi single", p.svc.hiLat},
		{"svc fleet", p.svc.fleetLat},
	} {
		d := summarize(set.xs)
		note := ""
		if d.tail < 99 {
			note = fmt.Sprintf(" (only p%g is resolvable from %d samples)", d.tail, d.n)
		}
		fmt.Fprintf(out, "%s latency: n=%d p50 %.2f ms p99 %.2f ms%s\n", set.name, d.n, d.p50, d.p99, note)
	}
	for _, d := range endToEndDefs {
		fmt.Fprintf(out, "%-28s %14.4f %s\n", d.name, m[d.name], d.unit)
	}
	for _, name := range svcLatencies {
		fmt.Fprintf(out, "%-28s %14.4f ms (reported, not gated)\n", name, m[name])
	}
}

// svcLatencies are the service's end-to-end latencies, reported per
// layer rather than gated (see endToEndDefs).
var svcLatencies = []string{"svc.lo.p50_ms", "svc.lo.p99_ms", "svc.hi.p50_ms", "svc.hi.p99_ms", "svc.fleet.p50_ms"}

// traced repeats the pass with spans and CPU profiles on, measures each
// layer directly, and returns the per-layer metrics.
func (r *runner) traced(ctx context.Context, o options, untraced *pass, plain map[string]float64, out io.Writer) (map[string]float64, error) {
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	p, err := r.pass(ctx, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	profiles := [][]byte{prof.Bytes()}
	var workerRSSKB int64
	workerFiles, err := filepath.Glob(filepath.Join(r.dir, "worker-*"))
	if err != nil {
		return nil, err
	}
	for _, f := range workerFiles {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(f, ".rss") {
			kb, err := strconv.ParseInt(string(b), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			workerRSSKB = max(workerRSSKB, kb)
		} else {
			profiles = append(profiles, b)
		}
		if err := os.Remove(f); err != nil {
			return nil, err
		}
	}
	shares, samples, err := profileShares(profiles)
	if err != nil {
		return nil, err
	}

	m := map[string]float64{}
	for _, l := range cpuLayers {
		m["cpu."+l+"_pct"] = shares[l]
	}
	fp := p.fleet
	runs := summarize(fp.runWallsMS)
	m["sim.run_ms_p50"], m["sim.run_ms_p99"] = runs.p50, runs.p99
	m["sim.pool_busy_share"] = fp.account.runSum.Seconds() / (fleetWorkers * fp.account.wall.Seconds())

	sp := p.shard
	m["shardexec.attempt_ms_p50"] = median(untraced.shard.attemptMS)
	m["shardexec.attempts"] = float64(sp.attempts)
	m["shardexec.retries"] = float64(sp.retries)
	m["shardexec.quarantined"] = float64(sp.quar)
	m["shardexec.checkpoint_kb"] = float64(sp.checkpointBytes) / 1024
	m["shardexec.worker_rss_peak_mb"] = float64(workerRSSKB) / 1024

	svcLayers(p.svc, m)

	if err := measureLayers(ctx, r.spec, r.w.shardSize, m); err != nil {
		return nil, err
	}
	m["shardexec.overhead_ms_per_shard"] = m["shardexec.attempt_ms_p50"] - m["shardexec.inprocess_ms_per_shard"]
	a, f := p.ops()
	m["ops_attempted"], m["ops_failed"] = float64(a), float64(f)

	spans := tr.snapshot()
	path := filepath.Join(r.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "traced: %d spans written to %s; %d CPU profile samples from %d processes\n", len(spans), path, samples, len(profiles))
	printSelfTimes(out, selfTimes(spans))
	fmt.Fprintf(out, "samples: sim.run %d, shardexec attempts %d untraced / %d traced, svc requests %d (queue/exec %d)\n",
		len(fp.runWallsMS), len(untraced.shard.attemptMS), len(sp.attemptMS), p.svc.requests, len(p.svc.queue))
	tracedE2E := r.endToEnd(p, plain["setup_s"])
	// The service latencies are reported as the untraced pass measured
	// them.
	for _, name := range svcLatencies {
		m[name] = plain[name]
	}
	fmt.Fprintln(out, "tracing overhead (traced vs untraced pass):")
	for _, name := range overheadMetrics {
		fmt.Fprintf(out, "  %-28s untraced %12.4f traced %12.4f (%+.2f%%)\n", name, plain[name], tracedE2E[name],
			100*(tracedE2E[name]-plain[name])/plain[name])
	}
	printAccounting(out, fp)
	fmt.Fprintln(out, "CPU share by layer (traced pass, this process and its workers):")
	for _, l := range cpuLayers {
		fmt.Fprintf(out, "  %-10s %6.2f%%\n", l, shares[l])
	}
	fmt.Fprintln(out, "per-layer metrics:")
	for _, d := range perLayerDefs {
		fmt.Fprintf(out, "  %-34s %14.4f %-6s layer %s; moves %s on %s\n", d.name, m[d.name], d.unit, d.layer, d.moves, d.workload)
	}
	return m, nil
}

// overheadMetrics are the end-to-end numbers the traced pass repeats.
var overheadMetrics = []string{
	"fleet.devices_per_s", "fleet.cpu_ms_per_device", "sharded.devices_per_s", "sharded.cpu_ms_per_device",
	"svc.lo.p50_ms", "svc.lo.p99_ms", "svc.hi.p50_ms", "svc.hi.p99_ms", "svc.fleet.p50_ms", "svc.cpu_ms_per_request",
	"svc.hi.goodput_rps",
}

// printAccounting shows that the fleet's wall is explained by its
// layers: batch sampling, the sim pool (run time over workers plus pool
// idle at each batch barrier) and the fold.
func printAccounting(out io.Writer, fp *fleetPhase) {
	a := fp.account
	runPerWorker := a.runSum / fleetWorkers
	rest := a.wall - a.sample - a.runAll - a.fold
	fmt.Fprintf(out, "fleet wall accounting over %d traced reps: wall %.1f ms = sample %.1f + sim runs/%d workers %.1f + pool idle %.1f + fold %.1f + unaccounted %.1f (%.2f%% of wall)\n",
		len(fp.reps), ms(a.wall), ms(a.sample), fleetWorkers, ms(runPerWorker), ms(a.runAll-runPerWorker), ms(a.fold), ms(rest), 100*rest.Seconds()/a.wall.Seconds())
}

// svcLayers derives the service's per-layer metrics from the traced
// pass.
func svcLayers(sv *svcPhase, m map[string]float64) {
	qd := summarize(sv.queue)
	m["httpapi.accept_ms_p50"] = median(sv.accept)
	m["runstore.queue_ms_p50"], m["runstore.queue_ms_p99"] = qd.p50, qd.p99
	m["httpapi.exec_ms_p50"] = median(sv.exec)
	fleets := float64(max(sv.fleets, 1))
	m["httpapi.sse_frames_per_fleet"] = float64(sv.fleetFrames) / fleets
	m["httpapi.sse_kb_per_fleet"] = float64(sv.fleetBytes) / 1024 / fleets
	m["gen.lag_ms_p99"] = summarize(sv.lag).p99
	m["runstore.nonpending_202"] = float64(sv.nonpending)
}
