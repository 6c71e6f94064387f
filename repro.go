// Package repro is the public facade of SIMTY-Go, a full reproduction of
// "Similarity-Based Wakeup Management for Mobile Systems in Connected
// Standby" (Kao, Cheng, Hsiu — DAC 2016).
//
// The paper's Android testbed is replaced by a deterministic
// discrete-event simulation of a mobile device in connected standby: an
// AlarmManager substrate with Android's native batching (internal/alarm),
// the SIMTY similarity-based alignment policy (internal/core), a device
// power model calibrated against the paper's Monsoon measurements
// (internal/power, internal/device), and the paper's 18-app workload
// catalog (internal/apps).
//
// Quick start:
//
//	cmp, err := repro.Compare(repro.Config{
//	    Workload:     repro.LightWorkload(),
//	    SystemAlarms: true,
//	}, "NATIVE", "SIMTY")
//	fmt.Printf("standby time extended by %.0f%%\n", cmp.StandbyExtension()*100)
//
// See cmd/report for regenerating every table and figure of the paper's
// evaluation, and the examples/ directory for runnable scenarios.
package repro

import (
	"context"

	"repro/internal/alarm"
	"repro/internal/apps"
	"repro/internal/backend"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/power"
	"repro/internal/shardexec"
	"repro/internal/sim"
	"repro/internal/simclock"
	"repro/internal/tournament"
)

// Core simulation types, re-exported from internal/sim.
type (
	// Config describes one connected-standby run: workload, policy,
	// horizon, grace factor β, and seed.
	Config = sim.Config
	// Result is a finished run with its energy breakdown, delivery
	// records, delay statistics, and wakeup breakdown.
	Result = sim.Result
	// Comparison pairs a baseline run with a candidate run.
	Comparison = sim.Comparison
	// AppSpec describes one application's major alarm (Table 3 row).
	AppSpec = apps.Spec
	// MotivatingResult is the outcome of the Figure 2 example.
	MotivatingResult = sim.MotivatingResult
	// Policy is the alignment-policy interface: implement it and set
	// Config.Custom to plug a new policy into the simulator (see
	// examples/custompolicy).
	Policy = alarm.Policy
	// Alarm is one registered alarm as the policy sees it.
	Alarm = alarm.Alarm
	// Entry is a queue entry (batch of alarms delivered together).
	Entry = alarm.Entry
	// Profile is a device power model.
	Profile = power.Profile
	// RunAllOptions tunes the parallel experiment runner (worker count,
	// progress callback).
	RunAllOptions = sim.RunAllOptions
	// RunProgress reports one finished run to a progress callback.
	RunProgress = sim.Progress
	// PanicError is a panic recovered from a poisoned run, surfaced as
	// that run's error (stack attached) so the rest of a batch survives.
	PanicError = sim.PanicError
	// FaultPlan deterministically injects misbehaviour into a run via
	// Config.Faults: wakelock leaks, alarm storms, delivery jitter and
	// task overruns, clock-skewed schedules (see internal/fault).
	FaultPlan = fault.Plan
	// FaultLeak makes one app's wakelock leak (held-too-long or
	// never-released).
	FaultLeak = fault.Leak
	// FaultStorm adds a runaway app re-registering a short exact alarm.
	FaultStorm = fault.Storm
	// FaultEvent is one recorded injection or absorbed runtime violation
	// (Result.FaultEvents).
	FaultEvent = fault.Event
	// DrainResult is a finished run-to-empty battery discharge.
	DrainResult = sim.DrainResult
	// FleetSpec describes a population of heterogeneous devices: seeded
	// distributions over app mixes, rates, battery capacity, and faults
	// (see internal/fleet).
	FleetSpec = fleet.Spec
	// FleetOptions tunes a fleet run: worker count and the progress
	// layers (per-device folds, per-run completions, periodic
	// aggregate snapshots — the hooks cmd/wakesimd streams over SSE).
	FleetOptions = fleet.Options
	// FleetResult is a finished fleet run; Result.Agg.Summary() is its
	// deterministic JSON aggregate.
	FleetResult = fleet.Result
	// FleetSummary is the deterministic JSON aggregate of a fleet run.
	FleetSummary = fleet.Summary
	// FleetDist is one metric's streaming distribution across the fleet.
	FleetDist = fleet.Dist
	// FleetRange is a uniform distribution over [Min, Max].
	FleetRange = fleet.Range
	// FleetIntRange is a uniform distribution over the integers [Min, Max].
	FleetIntRange = fleet.IntRange
	// BackendModel parameterizes the backend co-simulation: device resume
	// sequencing (reconnect latency, client-perceived shedding, capped
	// retry backoff, suspend-guard debounce) and the server queue
	// (capacity, admission bound, service latency). Set Config.Backend or
	// FleetSpec.Backend to enable it (see internal/backend).
	BackendModel = backend.Model
	// BackendDeviceStats is one run's backend-interaction counters
	// (Result.Backend; nil when the backend model is off).
	BackendDeviceStats = backend.DeviceStats
	// BackendSummary is a fleet's deterministic backend-load aggregate:
	// folded retry counters plus the server-queue replay of the merged
	// arrival stream (FleetSummary.Base.Backend / .Test.Backend).
	BackendSummary = backend.Summary
	// DayProfile is a 24-hour diurnal usage profile: activity phases
	// that modulate push/screen rates (Config.Diurnal) and act as the
	// activity oracle for context-aware policies like SIMTY-U.
	DayProfile = apps.DayProfile
	// DayPhase is one contiguous activity phase of a DayProfile.
	DayPhase = apps.Phase
	// TournamentSpec describes a cross-regime policy competition: the
	// entrants, the fleet size, and the workload-regime matrix (see
	// internal/tournament).
	TournamentSpec = tournament.Spec
	// TournamentRegime is one workload column of the tournament matrix.
	TournamentRegime = tournament.Regime
	// TournamentOptions tunes tournament execution (worker pool, worker
	// processes); none of its fields affect the scoreboard's bytes.
	TournamentOptions = tournament.Options
	// FleetExecOptions chooses how a tournament's fleets execute
	// (TournamentOptions.Exec): in-process when Procs is 0, across
	// supervised worker processes when it is positive.
	FleetExecOptions = shardexec.Options
	// Scoreboard is a finished tournament: ranked per-regime columns
	// plus overall standings, byte-identical for a fixed spec.
	Scoreboard = tournament.Scoreboard
	// Time is a virtual-time instant in milliseconds.
	Time = simclock.Time
	// Duration is a virtual-time span in milliseconds.
	Duration = simclock.Duration
)

// Virtual-time units.
const (
	Millisecond = simclock.Millisecond
	Second      = simclock.Second
	Minute      = simclock.Minute
	Hour        = simclock.Hour
)

// Wakelock-leak modes for FaultLeak.Mode.
const (
	// LeakLate holds the wakelock past release (FaultLeak.Extra; 5 min
	// default).
	LeakLate = fault.LeakLate
	// LeakNever never releases the wakelock.
	LeakNever = fault.LeakNever
)

// DefaultBeta is the paper's grace factor (0.96).
const DefaultBeta = sim.DefaultBeta

// DefaultDuration is the paper's 3-hour horizon.
const DefaultDuration = sim.DefaultDuration

// Run executes one simulation.
func Run(cfg Config) (*Result, error) { return sim.Run(cfg) }

// RunTrials repeats a configuration with consecutive seeds, fanning the
// trials over the parallel runner.
func RunTrials(cfg Config, trials int) ([]*Result, error) { return sim.RunTrials(cfg, trials) }

// RunAll executes independent configurations on a bounded worker pool
// (GOMAXPROCS workers by default) and returns results in input order,
// byte-identical to serial execution. The first error cancels the pool.
func RunAll(ctx context.Context, cfgs []Config, opts RunAllOptions) ([]*Result, error) {
	return sim.RunAll(ctx, cfgs, opts)
}

// RunFleet samples spec.Devices heterogeneous device configurations,
// runs each under the spec's base and test policies on the parallel
// pool, and streams the results into memory-bounded online aggregates.
// For a fixed spec the JSON aggregate is byte-identical across worker
// counts and shard sizes. On a mid-fleet failure the returned result
// is non-nil alongside the error and carries the aggregate over every
// device folded before the failure; only a spec that fails validation
// returns a nil result.
func RunFleet(ctx context.Context, spec FleetSpec, opts FleetOptions) (*FleetResult, error) {
	return fleet.Run(ctx, spec, opts)
}

// RunToEmpty discharges a full battery under the configuration,
// measuring standby time directly.
func RunToEmpty(cfg Config) (*DrainResult, error) { return sim.RunToEmpty(cfg) }

// RunToEmptyAll discharges every configuration in parallel.
func RunToEmptyAll(ctx context.Context, cfgs []Config, opts RunAllOptions) ([]*DrainResult, error) {
	return sim.RunToEmptyAll(ctx, cfgs, opts)
}

// Sweep fans one base configuration across n variants (vary mutates
// copy i) and runs them all on the pool, results in variant order.
func Sweep(ctx context.Context, base Config, n int, vary func(int, *Config), opts RunAllOptions) ([]*Result, error) {
	return sim.Sweep(ctx, base, n, vary, opts)
}

// Compare runs the same configuration under a baseline and a candidate
// policy.
func Compare(cfg Config, base, test string) (Comparison, error) {
	return sim.Compare(cfg, base, test)
}

// CompareTrials repeats Compare for trials consecutive seeds with all
// runs fanned over the parallel pool.
func CompareTrials(ctx context.Context, cfg Config, base, test string, trials int, opts RunAllOptions) ([]Comparison, error) {
	return sim.CompareTrials(ctx, cfg, base, test, trials, opts)
}

// Motivating reproduces the paper's Figure 2 three-alarm example under
// the named policy.
func Motivating(policy string) (*sim.MotivatingResult, error) { return sim.Motivating(policy) }

// PolicyNames lists the registered alignment policies in registration
// order: NATIVE, NOALIGN, INTERVAL, DOZE, then the SIMTY family (SIMTY,
// SIMTY-hw2, SIMTY-hw4, SIMTY-DUR, SIMTY-J) and the context-aware
// extensions (SIMTY-U, AOI). Plug-in policies added via RegisterPolicy
// appear after the builtins.
func PolicyNames() []string { return sim.PolicyNames() }

// PolicyByName instantiates a registered policy (lookup is
// case-insensitive); unknown names come back as an error listing the
// registered set. Most callers never need the instance — Config.Policy
// takes the name — but it is the direct handle for inspecting or
// embedding a builtin.
func PolicyByName(name string) (Policy, error) { return sim.PolicyByName(name) }

// RunTournament executes a cross-regime policy competition: every
// entrant simulates every regime's fleet paired against the base
// policy, and the per-regime fleet summaries are ranked into the
// scoreboard. The scoreboard is a pure function of the spec —
// byte-identical across worker counts and process counts.
func RunTournament(ctx context.Context, spec TournamentSpec, opts TournamentOptions) (*Scoreboard, error) {
	return tournament.Run(ctx, spec, opts)
}

// DefaultDay returns the canonical weekday profile: a quiet night, a
// morning spike, steady daytime use, an evening peak, and wind-down.
// Set Config.Diurnal to it (or FleetSpec.Diurnal / a tournament
// regime's Diurnal flag) to modulate push and screen arrivals over the
// day and give context-aware policies their activity oracle.
func DefaultDay() *DayProfile { return apps.DefaultDay() }

// DiffSyncWorkload returns the differential-sync app archetypes: chat,
// mail, notes, feed, drive, photos, backup — dynamic-interval apps
// whose per-delivery payload sizes scale task energy.
func DiffSyncWorkload() []AppSpec { return apps.DiffSyncWorkload() }

// MixedWorkload returns the light Table 3 scenario plus the
// differential-sync archetypes.
func MixedWorkload() []AppSpec { return apps.MixedWorkload() }

// RegisterPolicy adds a named alignment policy to the global registry,
// making it selectable by name everywhere a policy string is accepted
// (Config.Policy, fleet specs, the HTTP API, CLI flags). Lookup is
// case-insensitive; registering a duplicate name or a nil factory
// returns an error. The factory receives the run's seed, so seeded
// policies (like SIMTY-J's per-device phase) stay deterministic.
func RegisterPolicy(name string, factory func(seed int64) (Policy, error)) error {
	return alarm.Register(name, func(ctx alarm.PolicyContext) (alarm.Policy, error) {
		return factory(ctx.Seed)
	})
}

// Table3 returns the paper's 18-app catalog.
func Table3() []AppSpec { return apps.Table3() }

// LightWorkload returns the paper's light scenario (12 apps: Alarm Clock
// plus 11 Wi-Fi-only apps).
func LightWorkload() []AppSpec { return apps.LightWorkload() }

// HeavyWorkload returns the paper's heavy scenario (all 18 apps).
func HeavyWorkload() []AppSpec { return apps.HeavyWorkload() }

// Nexus5 returns the LG Nexus 5 power profile calibrated against the
// paper's measurements.
func Nexus5() *Profile { return power.Nexus5() }
