package fleet

import (
	"bytes"
	"testing"
)

// FuzzFleetSpec: ReadSpec is total over arbitrary bytes — it either
// rejects the input with an error or returns a spec whose sampling and
// config-building paths cannot panic.
func FuzzFleetSpec(f *testing.F) {
	f.Add([]byte(`{"devices": 10}`))
	f.Add([]byte(`{"devices": 3, "seed": -9, "hours": 0.5, "beta": 0.5,
		"base_policy": "noalign", "test_policy": "simty-dur",
		"apps": {"min": 1, "max": 64}, "one_shots": {"min": 0, "max": 1000},
		"pushes_per_hour": {"min": 0, "max": 1000},
		"screens_per_hour": {"min": 0.5, "max": 0.5},
		"task_jitter": {"min": 0, "max": 0.999},
		"battery_scale": {"min": 0.01, "max": 100},
		"leak_fraction": 1, "system_alarms": true, "zero_wake_latency": true}`))
	f.Add([]byte(`{"devices": 10000000, "hours": 10000}`))
	f.Add([]byte(`{"devices": 0}`))
	f.Add([]byte(`{"apps": {"min": 9e99}}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"devices": 3}{"devices": 4}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ReadSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		// An accepted spec must sample and build configs without panics,
		// and the samples must respect the spec's own bounds.
		for _, i := range []int{0, spec.Devices - 1} {
			d := spec.SampleDevice(i)
			if len(d.Workload) == 0 {
				t.Fatalf("device %d sampled an empty workload", i)
			}
			if d.LeakApp != "" {
				installed := false
				for _, w := range d.Workload {
					installed = installed || w.Name == d.LeakApp
				}
				if !installed {
					t.Fatalf("device %d leaks %q, which is not installed", i, d.LeakApp)
				}
			}
			s := spec.WithDefaults()
			for _, policy := range []string{s.BasePolicy, s.TestPolicy} {
				cfg := spec.Config(d, policy)
				if len(cfg.Workload) != len(d.Workload) {
					t.Fatalf("config dropped workload apps: %d vs %d", len(cfg.Workload), len(d.Workload))
				}
			}
		}
	})
}
