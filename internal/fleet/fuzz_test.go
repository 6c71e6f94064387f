package fleet

import (
	"bytes"
	"context"
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

// FuzzDecodeShard: DecodeShard reads untrusted bytes — a worker's
// stdout. It must never panic, and a frame it accepts
// must re-encode to exactly the bytes it was given. The checksum keeps
// most mutations away from the state parser, so each input is also
// parsed as a bare state payload: whatever validates must then merge
// into an aggregate of a matching spec without error or panic.
func FuzzDecodeShard(f *testing.F) {
	specs := shardSpecs()
	for _, spec := range specs {
		sa, err := RunShard(context.Background(), spec, 0, 3, 1)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(EncodeShard(sa))
		f.Add(sa.state)
	}
	f.Add([]byte("WFSH"))
	f.Add(NewAggregate(specs["plain"]).EncodeState())
	f.Fuzz(func(t *testing.T, data []byte) {
		if sa, err := DecodeShard(data); err == nil {
			if again := EncodeShard(sa); !bytes.Equal(again, data) {
				t.Fatalf("decoded frame re-encodes differently:\n got %x\nwant %x", again, data)
			}
		}
		if _, err := mergeState(data, nil, false); err != nil {
			return
		}
		for _, spec := range specs {
			agg := NewAggregate(spec)
			if _, err := mergeState(data, agg, false); err != nil {
				continue
			}
			if _, err := mergeState(data, agg, true); err != nil {
				t.Fatalf("validated state failed to merge: %v", err)
			}
		}
	})
}
