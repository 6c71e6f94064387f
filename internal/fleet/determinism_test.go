package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
)

// detSpec exercises every sampled dimension so the determinism check
// covers the whole draw order, not just the app mix.
func detSpec() Spec {
	return Spec{
		Devices:        40,
		Seed:           21,
		Hours:          0.5,
		Apps:           IntRange{Min: 1, Max: 8},
		OneShots:       IntRange{Min: 0, Max: 3},
		PushesPerHour:  Range{Min: 0, Max: 6},
		ScreensPerHour: Range{Min: 0, Max: 2},
		TaskJitter:     Range{Min: 0, Max: 0.4},
		BatteryScale:   Range{Min: 0.8, Max: 1.2},
		LeakFraction:   0.2,
	}
}

func summaryJSON(t *testing.T, opts Options) []byte {
	t.Helper()
	r, err := Run(context.Background(), detSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(r.Agg.Summary(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetByteIdenticalAcrossWorkersAndShards: the headline determinism
// contract — for a fixed Spec, the JSON aggregate is byte-identical no
// matter how many workers executed the runs or how the fleet was split
// into shards and in which order the shards were merged.
func TestFleetByteIdenticalAcrossWorkersAndShards(t *testing.T) {
	ref := summaryJSON(t, Options{Workers: 1})
	for _, workers := range []int{3, 8} {
		if got := summaryJSON(t, Options{Workers: workers}); !bytes.Equal(ref, got) {
			t.Errorf("workers=%d: aggregate JSON differs from workers=1 reference\nref:  %s\ngot:  %s", workers, ref, got)
		}
	}
	spec := detSpec()
	for _, step := range []int{7, 13} {
		shards := runShards(t, spec, step)
		agg := NewAggregate(spec)
		for i := len(shards) - 1; i >= 0; i-- {
			if err := agg.MergeShard(shards[i]); err != nil {
				t.Fatal(err)
			}
		}
		got, err := json.MarshalIndent(agg.Summary(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref, got) {
			t.Errorf("shards of %d merged in reverse: aggregate JSON differs from workers=1 reference\nref:  %s\ngot:  %s", step, ref, got)
		}
	}
}

// TestSampleDeviceIsPure: device i's configuration is a pure function of
// (Spec, i) — resampling yields a deeply equal Device, and sampling
// order doesn't matter.
func TestSampleDeviceIsPure(t *testing.T) {
	spec := detSpec()
	forward := make([]Device, spec.Devices)
	for i := range forward {
		forward[i] = spec.SampleDevice(i)
	}
	for i := spec.Devices - 1; i >= 0; i-- {
		if again := spec.SampleDevice(i); !reflect.DeepEqual(forward[i], again) {
			t.Fatalf("device %d resampled differently:\n%+v\n%+v", i, forward[i], again)
		}
	}
}

// TestSampleDeviceHeterogeneity: the population is actually
// heterogeneous — neighbouring devices differ in mix size, rates, and
// seeds, i.e. the per-device streams are decorrelated.
func TestSampleDeviceHeterogeneity(t *testing.T) {
	spec := detSpec()
	sizes := map[int]bool{}
	seeds := map[int64]bool{}
	pushes := map[float64]bool{}
	leaky := 0
	for i := 0; i < spec.Devices; i++ {
		d := spec.SampleDevice(i)
		if d.Index != i {
			t.Fatalf("device %d carries index %d", i, d.Index)
		}
		sizes[len(d.Workload)] = true
		seeds[d.Seed] = true
		pushes[d.PushesPerHour] = true
		if d.LeakApp != "" {
			leaky++
		}
	}
	if len(sizes) < 3 {
		t.Errorf("only %d distinct app-mix sizes across %d devices", len(sizes), spec.Devices)
	}
	if len(seeds) != spec.Devices {
		t.Errorf("%d distinct device seeds across %d devices, want all distinct", len(seeds), spec.Devices)
	}
	if len(pushes) < spec.Devices/2 {
		t.Errorf("only %d distinct push rates across %d devices", len(pushes), spec.Devices)
	}
	if leaky == 0 || leaky == spec.Devices {
		t.Errorf("leak fraction 0.2 produced %d/%d leaky devices", leaky, spec.Devices)
	}
}
