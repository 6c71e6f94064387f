package main

import (
	"repro/internal/backend"
	"repro/internal/fleet"
)

// workload is one device population, driven through all three ways a
// user waits on the simulator: an in-process fleet (fleet.Run), a
// supervised multi-process fleet (shardexec.Run) and the HTTP service
// (httpapi over runstore). Every run therefore measures every
// end-to-end metric; the population decides which layers dominate.
type workload struct {
	name, why string
	// spec is the population; Devices and Seed are set per run.
	spec fleet.Spec
	// devices sizes one repetition of the in-process and the supervised
	// fleet phase. Both run the same spec, so the supervised Summary can
	// be checked byte for byte against the in-process one.
	devices int
	// shardSize is the device range per worker process.
	shardSize int
}

// The open-loop service load is the same for every workload: Poisson
// arrivals at two fixed rates, mostly single runs plus a fixed share of
// small fleet requests drawn from the workload's population. hiRPS sits
// well below the knee on a two-CPU host (at 300 req/s the single-run p50
// grows tenfold). A fleet request takes both CPUs and one of the two
// client connections, for longer the slower the host, so the share of
// single runs it overlaps (and slows) grows in slow spells and moves the
// single-run p50s by more than the host's speed alone. fleetShare keeps
// that share small, so the p50s measure the single-run path rather than
// the fleet overlap, while the fleets still put head-of-line blocking
// into the tail.
const (
	loRPS, hiRPS = 60.0, 100.0
	// fleetShare of requests are fleet requests of fleetDevices devices.
	fleetShare   = 0.02
	fleetDevices = 16
	// p99LimitMS is the latency limit goodput counts single runs against;
	// a failed request always misses it.
	p99LimitMS = 100.0
)

// steadySpec is the long-horizon Table 3 population: 3 h, 4–12 apps,
// system alarms, one-shots, pushes, screens, task jitter and a 5% leak
// fraction, NATIVE vs SIMTY. Each device pair costs milliseconds of
// simulation, so sim.Run's inner layers dominate every phase.
func steadySpec() fleet.Spec {
	return fleet.Spec{
		Hours:          3,
		BasePolicy:     "NATIVE",
		TestPolicy:     "SIMTY",
		SystemAlarms:   true,
		Apps:           fleet.IntRange{Min: 4, Max: 12},
		OneShots:       fleet.IntRange{Min: 0, Max: 6},
		PushesPerHour:  fleet.Range{Min: 0, Max: 4},
		ScreensPerHour: fleet.Range{Min: 0, Max: 2},
		TaskJitter:     fleet.Range{Min: 0, Max: 0.2},
		LeakFraction:   0.05,
	}
}

// herdSpec is the short-horizon synchronized population: 1 h, 1–4
// apps, the backend co-simulation on with aligned phases, NATIVE vs
// SIMTY-J. Each device's simulation is short, so process spawn, the
// shard codec, the in-order merge, checkpoint fsyncs and the backend
// histogram merge and Serve take a large share.
func herdSpec() fleet.Spec {
	return fleet.Spec{
		Hours:         1,
		BasePolicy:    "NATIVE",
		TestPolicy:    "SIMTY-J",
		Apps:          fleet.IntRange{Min: 1, Max: 4},
		Backend:       &backend.Model{ShedRate: 0.05, Capacity: 20, QueueLimit: 300},
		AlignedPhases: true,
	}
}

var workloads = []workload{
	{
		name:      "fleet-steady",
		why:       "3 h Table 3 devices, sim-bound: closed-loop fleet.Run (2 workers) and shardexec (2 procs); open-loop HTTP, Poisson 60 and 100 req/s on 2 conns, 100 ms limit",
		spec:      steadySpec(),
		devices:   512,
		shardSize: 128,
	},
	{
		name:      "fleet-sharded-herd",
		why:       "1 h 1-4-app backend devices, overhead-bound (spawn, codec, merge, fsync, Serve); same closed-loop fleets and open-loop HTTP mix (60, 100 req/s, 2 conns, 100 ms limit)",
		spec:      herdSpec(),
		devices:   4096,
		shardSize: 256,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
