package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/alarm"
	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/simclock"
)

// panicPolicy is a poisoned alignment policy: its first Select panics,
// standing in for a buggy user-supplied policy (examples/custompolicy
// invites them) inside an otherwise healthy batch.
type panicPolicy struct{}

func (panicPolicy) Name() string { return "PANIC" }
func (panicPolicy) Select([]*alarm.Entry, *alarm.Alarm, simclock.Time) int {
	panic("poisoned policy")
}

// TestRunAllPoisonedBatchAggregate is the tentpole acceptance test: a
// batch of 8 runs with one poisoned (panicking) run completes the other
// 7, returns the panic as that run's error with the stack attached, and
// is race-clean (make verify executes this under -race).
func TestRunAllPoisonedBatchAggregate(t *testing.T) {
	cfgs := make([]Config, 8)
	for i := range cfgs {
		cfgs[i] = Config{Workload: apps.LightWorkload(), Policy: "SIMTY", Seed: int64(i)}
	}
	const poisoned = 3
	cfgs[poisoned].Custom = panicPolicy{}

	var failed []int
	rs, err := RunAll(context.Background(), cfgs, RunAllOptions{
		Workers:   4,
		Aggregate: true,
		Progress: func(p Progress) {
			if p.Err != nil {
				failed = append(failed, p.Index)
			}
		},
	})
	if err == nil {
		t.Fatal("poisoned run's panic vanished")
	}
	if len(rs) != len(cfgs) {
		t.Fatalf("got %d result slots for %d runs", len(rs), len(cfgs))
	}
	for i, r := range rs {
		if i == poisoned {
			if r != nil {
				t.Errorf("poisoned run %d produced a result", i)
			}
			continue
		}
		if r == nil {
			t.Errorf("healthy run %d lost its result to the poisoned one", i)
		} else if r.Config.Seed != int64(i) {
			t.Errorf("run %d out of order: seed %d", i, r.Config.Seed)
		}
	}

	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error does not unwrap to *PanicError: %v", err)
	}
	if pe.Value != "poisoned policy" {
		t.Errorf("panic value %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "goroutine") {
		t.Errorf("no stack attached to the panic: %q", pe.Stack)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("run %d", poisoned)) ||
		!strings.Contains(err.Error(), "PANIC") {
		t.Errorf("error does not identify the poisoned run: %v", err)
	}
	if !reflect.DeepEqual(failed, []int{poisoned}) {
		t.Errorf("progress reported failures %v, want [%d]", failed, poisoned)
	}
}

// TestRunAllPoisonedFirstError: without Aggregate, the panic still
// becomes an error (never a crash) and tears the pool down like any
// other first error.
func TestRunAllPoisonedFirstError(t *testing.T) {
	cfgs := []Config{
		{Workload: apps.LightWorkload(), Policy: "SIMTY", Seed: 1, Custom: panicPolicy{}},
		{Workload: apps.LightWorkload(), Policy: "SIMTY", Seed: 2},
	}
	rs, err := RunAll(context.Background(), cfgs, RunAllOptions{Workers: 1})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError", err)
	}
	if rs != nil {
		t.Errorf("first-error mode returned partial results")
	}
}

// TestRunAllAggregateJoinsAllErrors: every failure is collected and
// joined in input order; healthy interleaved runs all complete.
func TestRunAllAggregateJoinsAllErrors(t *testing.T) {
	good := Config{Workload: apps.LightWorkload(), Policy: "SIMTY", Seed: 1}
	bad := good
	bad.Policy = "BOGUS"
	cfgs := []Config{bad, good, bad, good}

	rs, err := RunAll(context.Background(), cfgs, RunAllOptions{Workers: 2, Aggregate: true})
	if err == nil {
		t.Fatal("aggregate mode dropped the errors")
	}
	if rs[0] != nil || rs[2] != nil || rs[1] == nil || rs[3] == nil {
		t.Fatalf("result slots wrong: [%v %v %v %v]", rs[0], rs[1], rs[2], rs[3])
	}
	msg := err.Error()
	if !strings.Contains(msg, "run 0") || !strings.Contains(msg, "run 2") {
		t.Errorf("joined error missing a failure: %v", err)
	}
	if i0, i2 := strings.Index(msg, "run 0"), strings.Index(msg, "run 2"); i0 > i2 {
		t.Errorf("failures not joined in input order: %v", err)
	}
}

// faultPlan is the reference plan the determinism and e2e tests share:
// every fault class at once.
func faultPlan() *fault.Plan {
	return &fault.Plan{
		Leaks: []fault.Leak{
			{App: "Viber", Mode: fault.LeakLate, AfterDeliveries: 2},
			{App: "Weibo", Mode: fault.LeakNever, AfterDeliveries: 5},
		},
		Storms: []fault.Storm{{App: "rogue", Period: 30 * simclock.Second}},
		Jitter: fault.Jitter{MaxDelay: 2 * simclock.Second, OverrunProb: 0.1},
		Skews:  []fault.Skew{{App: "Line", Offset: simclock.Minute}},
	}
}

// TestFaultRunDeterministic is the other tentpole acceptance test:
// identical seeds + fault plan produce byte-identical Records and
// identical fault-event streams across repeated runs.
func TestFaultRunDeterministic(t *testing.T) {
	cfg := Config{
		Workload:     apps.HeavyWorkload(),
		Policy:       "SIMTY",
		Seed:         11,
		CollectTrace: true,
		Faults:       faultPlan(),
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Error("Records diverged across identical seed+plan runs")
	}
	if !reflect.DeepEqual(a.FaultEvents, b.FaultEvents) {
		t.Error("FaultEvents diverged across identical seed+plan runs")
	}
	if a.Energy != b.Energy {
		t.Errorf("Energy diverged: %+v vs %+v", a.Energy, b.Energy)
	}
	if len(a.FaultEvents) == 0 {
		t.Fatal("the reference plan injected nothing")
	}

	// A different seed must actually change the injected stream —
	// otherwise "deterministic" would be vacuous.
	cfg2 := cfg
	cfg2.Seed = 12
	c, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.FaultEvents, c.FaultEvents) {
		t.Error("fault stream identical across different seeds")
	}
}

// TestFaultEventsSurface checks each fault class leaves its mark on the
// run: leak and skew events are attributed to their apps, the storm
// delivers through the alarm manager, and fault events reach the trace.
func TestFaultEventsSurface(t *testing.T) {
	cfg := Config{
		Workload:     apps.HeavyWorkload(),
		Policy:       "NATIVE",
		Seed:         5,
		CollectTrace: true,
		Faults:       faultPlan(),
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string][]string{}
	for _, e := range r.FaultEvents {
		kinds[e.Kind] = append(kinds[e.Kind], e.App)
	}
	for kind, wantApp := range map[string]string{
		"leak": "Viber",
		"skew": "Line",
	} {
		found := false
		for _, app := range kinds[kind] {
			if app == wantApp {
				found = true
			}
		}
		if !found {
			t.Errorf("no %q event for %s: %v", kind, wantApp, kinds[kind])
		}
	}

	storms := 0
	for _, rec := range r.Records {
		if rec.App == "rogue" {
			storms++
		}
	}
	if storms == 0 {
		t.Error("storm alarms never delivered")
	}

	faults := 0
	for _, e := range r.Trace.Events() {
		if e.Kind.String() == "fault" {
			faults++
		}
	}
	if faults != len(r.FaultEvents) {
		t.Errorf("%d fault trace events for %d fault events", faults, len(r.FaultEvents))
	}
}

// TestFaultLeakCostsEnergy: a never-released wakelock must burn more
// energy than the clean run — the fault is real, not just logged.
func TestFaultLeakCostsEnergy(t *testing.T) {
	cfg := Config{Workload: apps.LightWorkload(), Policy: "NATIVE", Seed: 9}
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	leaky := cfg
	leaky.Faults = &fault.Plan{Leaks: []fault.Leak{{App: "Facebook", Mode: fault.LeakNever}}}
	sick, err := Run(leaky)
	if err != nil {
		t.Fatal(err)
	}
	if sick.Energy.TotalMJ() <= clean.Energy.TotalMJ() {
		t.Errorf("leak did not cost energy: clean %.1f mJ, leaky %.1f mJ",
			clean.Energy.TotalMJ(), sick.Energy.TotalMJ())
	}
	if sick.StandbyHours >= clean.StandbyHours {
		t.Errorf("leak did not shorten standby: clean %.2f h, leaky %.2f h",
			clean.StandbyHours, sick.StandbyHours)
	}
}

// TestFaultPlanValidatedUpFront: a plan naming an app outside the
// workload is a config error before the run starts.
func TestFaultPlanValidatedUpFront(t *testing.T) {
	cfg := Config{
		Workload: apps.LightWorkload(),
		Policy:   "NATIVE",
		Seed:     1,
		Faults:   &fault.Plan{Leaks: []fault.Leak{{App: "NoSuchApp"}}},
	}
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "NoSuchApp") {
		t.Fatalf("bad plan accepted: %v", err)
	}
}
