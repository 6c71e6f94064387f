package apps

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/hw"
	"repro/internal/simclock"
	"repro/internal/strictjson"
)

// maxSpecSeconds bounds period_s and task_s: conversions beyond it
// would overflow the millisecond Duration (and no standby scenario
// needs a 30,000-year alarm). Guarding before the float→int conversion
// matters because out-of-range conversions are implementation-defined.
const maxSpecSeconds = 1e12

// specJSON is the on-disk form of a Spec: durations in seconds (the unit
// Table 3 uses), hardware as component names.
type specJSON struct {
	Name       string   `json:"name"`
	PeriodS    float64  `json:"period_s"`
	Alpha      float64  `json:"alpha"`
	Dynamic    bool     `json:"dynamic"`
	HW         []string `json:"hw"`
	TaskDurS   float64  `json:"task_s"`
	Imitated   bool     `json:"imitated,omitempty"`
	System     bool     `json:"system,omitempty"`
	NonWakeup  bool     `json:"non_wakeup,omitempty"`
	NoSleepBug bool     `json:"no_sleep_bug,omitempty"`
}

// WriteSpecs serializes a workload as indented JSON.
func WriteSpecs(w io.Writer, specs []Spec) error {
	out := make([]specJSON, len(specs))
	for i, s := range specs {
		names := []string{}
		for _, c := range s.HW.Components() {
			names = append(names, c.String())
		}
		out[i] = specJSON{
			Name:       s.Name,
			PeriodS:    s.Period.Seconds(),
			Alpha:      s.Alpha,
			Dynamic:    s.Dynamic,
			HW:         names,
			TaskDurS:   s.TaskDur.Seconds(),
			Imitated:   s.Imitated,
			System:     s.System,
			NonWakeup:  s.NonWakeup,
			NoSleepBug: s.NoSleepBug,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadSpecs parses a workload file written by WriteSpecs (or by hand)
// and validates each spec. The file is decoded strictly: an unknown
// field (a misspelled "nonwakeup") or data after the array is an error.
func ReadSpecs(r io.Reader) ([]Spec, error) {
	var raw []specJSON
	if err := strictjson.Decode(r, &raw); err != nil {
		return nil, fmt.Errorf("apps: decode workload: %w", err)
	}
	specs := make([]Spec, 0, len(raw))
	for i, j := range raw {
		if j.Name == "" {
			return nil, fmt.Errorf("apps: spec %d: empty name", i)
		}
		// NaN slips through ordered comparisons (NaN <= 0 is false), so
		// finiteness is checked explicitly: a NaN or ±Inf attribute must
		// be an error, never a poisoned Duration.
		if math.IsNaN(j.PeriodS) || math.IsNaN(j.Alpha) || math.IsNaN(j.TaskDurS) ||
			math.IsInf(j.PeriodS, 0) || math.IsInf(j.Alpha, 0) || math.IsInf(j.TaskDurS, 0) {
			return nil, fmt.Errorf("apps: spec %q: non-finite attribute", j.Name)
		}
		if j.PeriodS <= 0 || j.PeriodS > maxSpecSeconds {
			return nil, fmt.Errorf("apps: spec %q: period %v outside (0, %g] s", j.Name, j.PeriodS, float64(maxSpecSeconds))
		}
		if j.Alpha < 0 || j.Alpha >= 1 {
			return nil, fmt.Errorf("apps: spec %q: alpha %v outside [0,1)", j.Name, j.Alpha)
		}
		if j.TaskDurS < 0 || j.TaskDurS > maxSpecSeconds {
			return nil, fmt.Errorf("apps: spec %q: task duration %v outside [0, %g] s", j.Name, j.TaskDurS, float64(maxSpecSeconds))
		}
		period := simclock.Duration(j.PeriodS * float64(simclock.Second))
		if period <= 0 {
			// A sub-millisecond period truncates to zero at the clock's
			// granularity and would divide-by-zero the phase stagger.
			return nil, fmt.Errorf("apps: spec %q: period %v s below the 1 ms clock granularity", j.Name, j.PeriodS)
		}
		var set = Spec{
			Name:       j.Name,
			Period:     period,
			Alpha:      j.Alpha,
			Dynamic:    j.Dynamic,
			TaskDur:    simclock.Duration(j.TaskDurS * float64(simclock.Second)),
			Imitated:   j.Imitated,
			System:     j.System,
			NonWakeup:  j.NonWakeup,
			NoSleepBug: j.NoSleepBug,
		}
		for _, n := range j.HW {
			c, err := hw.ParseComponent(n)
			if err != nil {
				return nil, fmt.Errorf("apps: spec %q: %w", j.Name, err)
			}
			set.HW = set.HW.Union(hw.MakeSet(c))
		}
		specs = append(specs, set)
	}
	return specs, nil
}
