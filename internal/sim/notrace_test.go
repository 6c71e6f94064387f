package sim

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/metrics"
	"repro/internal/simclock"
)

// notraceConfig exercises every record source (repeating workload,
// system alarms, one-shots, pushes, screen sessions) so the parity
// check covers the full streaming path, not just the easy case.
func notraceConfig(policy string) Config {
	return Config{
		Workload:              apps.HeavyWorkload(),
		Policy:                policy,
		Duration:              2 * simclock.Hour,
		Seed:                  99,
		SystemAlarms:          true,
		OneShots:              5,
		PushesPerHour:         4,
		ScreenSessionsPerHour: 1.5,
		TaskJitter:            0.2,
	}
}

// comparable strips the fields NoTrace legitimately changes (Records,
// Trace) and the config itself, leaving everything the mode promises to
// keep byte-identical — every value the fleet layer folds among them.
type comparableResult struct {
	PolicyName   string
	Energy       interface{}
	StandbyHours float64
	Delays       metrics.DelayStats
	DelaysAll    metrics.DelayStats
	Wakeups      metrics.Breakdown
	SpkVib       metrics.Row
	Guarantees   metrics.Guarantees
	AoI          metrics.AoIStats
	WakeGaps     metrics.IntervalStats
	FinalWakeups int
	Pushes       int
}

func comparable(r *Result) comparableResult {
	return comparableResult{
		PolicyName:   r.PolicyName,
		Energy:       r.Energy,
		StandbyHours: r.StandbyHours,
		Delays:       r.Delays,
		DelaysAll:    r.DelaysAll,
		Wakeups:      r.Wakeups,
		SpkVib:       r.SpkVib,
		Guarantees:   r.Guarantees,
		AoI:          r.AoI,
		WakeGaps:     r.WakeGaps,
		FinalWakeups: r.FinalWakeups,
		Pushes:       r.Pushes,
	}
}

// TestNoTraceParity: the NoTrace fast mode must change nothing but
// Records/Trace retention — every derived metric, the energy snapshot,
// and the guarantee counters are identical to a retained run.
func TestNoTraceParity(t *testing.T) {
	for _, policy := range PolicyNames() {
		cfg := notraceConfig(policy)
		full, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.NoTrace = true
		fast, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}

		if len(full.Records) == 0 {
			t.Fatalf("%s: parity run delivered no records — test exercises nothing", policy)
		}
		if fast.Records != nil {
			t.Fatalf("%s: NoTrace run retained %d records", policy, len(fast.Records))
		}
		if fast.Trace != nil {
			t.Fatalf("%s: NoTrace run retained a trace", policy)
		}
		if got, want := comparable(fast), comparable(full); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: NoTrace diverged from retained run:\n fast %+v\n full %+v", policy, got, want)
		}
		// The streamed guarantee counters must equal a batch scan of the
		// retained run's records — this is the fleet layer's license to
		// fold Guarantees instead of Records.
		if got, want := full.Guarantees, metrics.GuaranteesOf(full.Records); got != want {
			t.Fatalf("%s: streamed guarantees %+v != batch scan %+v", policy, got, want)
		}
		// Same license for the wakeup-gap stream: it must reproduce the
		// batch WakeupGaps scan exactly.
		if got, want := full.WakeGaps, metrics.WakeupGaps(full.Records); got != want {
			t.Fatalf("%s: streamed wake gaps %+v != batch scan %+v", policy, got, want)
		}
	}
}

// TestNoTraceCollectTraceExclusive: asking for a trace and for no trace
// at once is a config error, not a silent preference.
func TestNoTraceCollectTraceExclusive(t *testing.T) {
	cfg := notraceConfig("NATIVE")
	cfg.NoTrace = true
	cfg.CollectTrace = true
	if _, err := Run(cfg); err == nil {
		t.Fatal("NoTrace+CollectTrace accepted")
	}
}

// TestNoTraceRunToEmpty: the fast mode holds on the drain entry point
// too, which shares the environment builder.
func TestNoTraceRunToEmpty(t *testing.T) {
	cfg := notraceConfig("SIMTY")
	cfg.Duration = simclock.Hour
	full, err := RunToEmpty(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NoTrace = true
	fast, err := RunToEmpty(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fast.Trace, full.Trace = nil, nil // both nil already: CollectTrace unset
	if !reflect.DeepEqual(fast, full) {
		t.Fatalf("NoTrace drain diverged:\n fast %+v\n full %+v", fast, full)
	}
}
