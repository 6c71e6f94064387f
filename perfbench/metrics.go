package main

// metricDef records what a metric means and what it is for: its unit,
// which direction is better, the layer it measures, and the end-to-end
// metric (and workload) a change to that layer is expected to move.
// BENCHMARK.json lists the same names, units and directions; a test
// keeps the two in step.
type metricDef struct {
	name, unit, better, layer string
	moves, workload           string
}

// endToEndDefs are what a user of the simulator waits on or pays for.
// Every workload reports all of them. The service's latencies (the
// single-run p50 and p99 at each rate and the fleet-request p50) are
// printed with them, with their sample counts, but reported per layer,
// not gated: on a two-CPU host shared with other tenants, how long a
// request waits for a CPU drifts from minute to minute, and in a noisy
// spell the middle half of ten runs spread up to 0.27 of the median for
// the single-run p50s, 0.42 for the fleet p50 and 1.3 for the p99s,
// against 0.25, the widest bound a metric may have. The CPU time spent
// per device or per request barely sees that wait (at most 0.11). So the
// service is gated by its CPU cost per request and by goodput, the
// share of hi-rate single runs within the latency limit, which moves by
// the share of requests a stall or a slower path pushes past it.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", "all", "-", "all"},
	{"fleet.devices_per_s", "1/s", "higher", "fleet.Run", "-", "all"},
	{"fleet.cpu_ms_per_device", "ms", "lower", "fleet.Run", "-", "all"},
	{"sharded.devices_per_s", "1/s", "higher", "shardexec.Run", "-", "all"},
	{"sharded.cpu_ms_per_device", "ms", "lower", "shardexec.Run", "-", "all"},
	{"svc.cpu_ms_per_request", "ms", "lower", "httpapi", "-", "all"},
	{"svc.hi.goodput_rps", "1/s", "higher", "httpapi", "-", "all"},
	{"rss_peak_mb", "MB", "lower", "all", "-", "all"},
}

const (
	steady = "fleet-steady"
	herd   = "fleet-sharded-herd"
	both   = "all"
)

// perLayerDefs are the traced run's per-layer metrics.
var perLayerDefs = []metricDef{
	{"fleet.sample_us_per_device", "us", "lower", "fleet", "sharded.cpu_ms_per_device", herd},
	{"fleet.fold_us_per_device", "us", "lower", "fleet", "sharded.devices_per_s", herd},
	{"fleet.encode_us_per_device", "us", "lower", "fleet", "sharded.cpu_ms_per_device", herd},
	{"fleet.decode_us_per_device", "us", "lower", "fleet", "sharded.devices_per_s", herd},
	{"fleet.shard_bytes_per_device", "B", "lower", "fleet", "sharded.cpu_ms_per_device", herd},
	{"fleet.state_bytes", "B", "lower", "fleet", "sharded.devices_per_s", herd},

	{"sim.run_ms_p50", "ms", "lower", "sim", "fleet.devices_per_s", steady},
	{"sim.run_ms_p99", "ms", "lower", "sim", "fleet.devices_per_s", steady},
	{"sim.allocs_per_run", "count", "lower", "sim", "fleet.cpu_ms_per_device", steady},
	{"sim.kb_per_run", "kB", "lower", "sim", "fleet.cpu_ms_per_device", steady},
	{"sim.deliveries_per_run", "count", "lower", "sim", "fleet.cpu_ms_per_device", steady},
	{"sim.ns_per_delivery", "ns", "lower", "sim", "fleet.cpu_ms_per_device", steady},
	{"sim.pool_busy_share", "ratio", "higher", "sim", "fleet.devices_per_s", steady},
	{"sim.retained.run_ms_p50", "ms", "lower", "sim", "svc.cpu_ms_per_request", both},
	{"sim.retained.allocs_per_run", "count", "lower", "sim", "svc.cpu_ms_per_request", both},

	{"cpu.simclock_pct", "%", "lower", "simclock", "fleet.cpu_ms_per_device", steady},
	{"cpu.alarm_pct", "%", "lower", "alarm", "fleet.cpu_ms_per_device", steady},
	{"cpu.core_pct", "%", "lower", "core", "fleet.cpu_ms_per_device", steady},
	{"cpu.hw_pct", "%", "lower", "hw", "fleet.cpu_ms_per_device", steady},
	{"cpu.device_pct", "%", "lower", "device", "fleet.cpu_ms_per_device", steady},
	{"cpu.power_pct", "%", "lower", "power", "fleet.cpu_ms_per_device", steady},
	{"cpu.apps_pct", "%", "lower", "apps", "fleet.cpu_ms_per_device", steady},
	{"cpu.metrics_pct", "%", "lower", "metrics", "fleet.cpu_ms_per_device", steady},
	{"cpu.sim_pct", "%", "lower", "sim", "fleet.cpu_ms_per_device", steady},
	{"cpu.fleet_pct", "%", "lower", "fleet", "sharded.cpu_ms_per_device", herd},
	{"cpu.stats_pct", "%", "lower", "stats", "sharded.cpu_ms_per_device", herd},
	{"cpu.backend_pct", "%", "lower", "backend", "sharded.cpu_ms_per_device", herd},
	{"cpu.shardexec_pct", "%", "lower", "shardexec", "sharded.cpu_ms_per_device", herd},
	{"cpu.runstore_pct", "%", "lower", "runstore", "svc.cpu_ms_per_request", both},
	{"cpu.httpapi_pct", "%", "lower", "httpapi", "svc.cpu_ms_per_request", both},
	{"cpu.nethttp_pct", "%", "lower", "net/http", "svc.cpu_ms_per_request", both},
	{"cpu.gc_alloc_pct", "%", "lower", "runtime malloc+GC", "fleet.cpu_ms_per_device", steady},
	{"cpu.other_pct", "%", "lower", "other", "-", both},

	{"metrics.ns_per_record", "ns", "lower", "metrics", "fleet.cpu_ms_per_device", steady},
	{"metrics.allocs_per_record", "count", "lower", "metrics", "fleet.cpu_ms_per_device", steady},

	{"backend.serve_ms", "ms", "lower", "backend", "sharded.devices_per_s", herd},
	{"backend.hist_merge_us_per_device", "us", "lower", "backend", "sharded.cpu_ms_per_device", herd},

	{"shardexec.attempt_ms_p50", "ms", "lower", "shardexec", "sharded.devices_per_s", herd},
	{"shardexec.inprocess_ms_per_shard", "ms", "lower", "fleet", "sharded.devices_per_s", herd},
	{"shardexec.overhead_ms_per_shard", "ms", "lower", "shardexec", "sharded.cpu_ms_per_device", herd},
	{"shardexec.attempts", "count", "lower", "shardexec", "sharded.devices_per_s", herd},
	{"shardexec.retries", "count", "lower", "shardexec", "sharded.devices_per_s", herd},
	{"shardexec.quarantined", "count", "lower", "shardexec", "sharded.devices_per_s", herd},
	{"shardexec.checkpoint_kb", "kB", "lower", "shardexec", "sharded.devices_per_s", herd},
	{"shardexec.worker_rss_peak_mb", "MB", "lower", "shardexec", "rss_peak_mb", herd},

	{"svc.lo.p50_ms", "ms", "lower", "httpapi", "svc.cpu_ms_per_request", both},
	{"svc.hi.p50_ms", "ms", "lower", "httpapi", "svc.cpu_ms_per_request", both},
	{"svc.lo.p99_ms", "ms", "lower", "httpapi", "svc.hi.goodput_rps", both},
	{"svc.hi.p99_ms", "ms", "lower", "httpapi", "svc.hi.goodput_rps", both},
	{"svc.fleet.p50_ms", "ms", "lower", "httpapi", "svc.hi.goodput_rps", both},
	{"httpapi.accept_ms_p50", "ms", "lower", "httpapi", "svc.hi.goodput_rps", both},
	{"runstore.queue_ms_p50", "ms", "lower", "runstore", "svc.hi.goodput_rps", both},
	{"runstore.queue_ms_p99", "ms", "lower", "runstore", "svc.hi.goodput_rps", both},
	{"httpapi.exec_ms_p50", "ms", "lower", "httpapi", "svc.cpu_ms_per_request", both},
	{"httpapi.sse_frames_per_fleet", "count", "lower", "httpapi", "svc.cpu_ms_per_request", both},
	{"httpapi.sse_kb_per_fleet", "kB", "lower", "httpapi", "svc.cpu_ms_per_request", both},
	{"gen.lag_ms_p99", "ms", "lower", "load generator", "svc.hi.goodput_rps", both},
	{"runstore.nonpending_202", "count", "lower", "runstore", "svc.hi.goodput_rps", both},

	{"ops_attempted", "count", "higher", "all", "-", both},
	{"ops_failed", "count", "lower", "all", "-", both},
}
