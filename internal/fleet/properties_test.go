package fleet

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
)

// propSpec is the randomized population the property tests sample from:
// heterogeneous app mixes with zero wake latency, so any late delivery
// is the policy's fault, not the hardware resume time's.
func propSpec(devices int) Spec {
	return Spec{
		Devices:         devices,
		Seed:            7,
		Hours:           1,
		Apps:            IntRange{Min: 2, Max: 10},
		ZeroWakeLatency: true,
	}
}

// TestPropertySimtyGuaranteesAcrossFleet: across ≥50 fleet-sampled
// workloads, SIMTY never delivers a perceptible alarm past its window
// end and never delivers any wakeup alarm past its grace end — the
// paper's §3.2 delivery guarantees, checked record by record.
func TestPropertySimtyGuaranteesAcrossFleet(t *testing.T) {
	spec := propSpec(55)
	perceptibles, checked := 0, 0
	for i := 0; i < spec.Devices; i++ {
		d := spec.SampleDevice(i)
		r, err := sim.Run(spec.Config(d, "SIMTY"))
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
		for _, rec := range r.Records {
			if rec.Perceptible {
				perceptibles++
				if rec.Delivered > rec.WindowEnd {
					t.Errorf("device %d: perceptible %s delivered %v past window end %v",
						i, rec.AlarmID, rec.Delivered, rec.WindowEnd)
				}
			}
			if rec.Delivered > rec.GraceEnd {
				t.Errorf("device %d: %s delivered %v past grace end %v",
					i, rec.AlarmID, rec.Delivered, rec.GraceEnd)
			}
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("checked %d workloads, want >= 50", checked)
	}
	if perceptibles == 0 {
		t.Fatal("no perceptible deliveries sampled — the guarantee check is vacuous")
	}
}

// TestPropertyFleetAggregateCountsNoLateDeliveries: the same guarantee
// through the streaming aggregation path — a zero-wake-latency fleet
// reports zero perceptible-late and grace-late deliveries for both the
// NATIVE baseline and SIMTY.
func TestPropertyFleetAggregateCountsNoLateDeliveries(t *testing.T) {
	r, err := Run(context.Background(), propSpec(30), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Agg.Summary()
	for _, p := range []struct {
		name string
		ps   PolicySummary
	}{{"base", s.Base}, {"test", s.Test}} {
		if p.ps.PerceptibleLate != 0 {
			t.Errorf("%s: %d perceptible deliveries past window end, want 0", p.name, p.ps.PerceptibleLate)
		}
		if p.ps.GraceLate != 0 {
			t.Errorf("%s: %d deliveries past grace end, want 0", p.name, p.ps.GraceLate)
		}
		if p.ps.MaxPerceptibleDelay != 0 {
			t.Errorf("%s: max perceptible delay %v, want 0", p.name, p.ps.MaxPerceptibleDelay)
		}
	}
}

// TestMetamorphicFleetSimtyNeverWakesMoreThanNoalign: per sampled
// device, SIMTY's wakeup count never exceeds NOALIGN's. Strict: NOALIGN
// never moves a delivery, so SIMTY's merging can only remove sessions.
func TestMetamorphicFleetSimtyNeverWakesMoreThanNoalign(t *testing.T) {
	spec := propSpec(55)
	for i := 0; i < spec.Devices; i++ {
		d := spec.SampleDevice(i)
		s, err := sim.Run(spec.Config(d, "SIMTY"))
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
		n, err := sim.Run(spec.Config(d, "NOALIGN"))
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
		if s.FinalWakeups > n.FinalWakeups {
			t.Errorf("device %d: SIMTY %d wakeups > NOALIGN %d", i, s.FinalWakeups, n.FinalWakeups)
		}
	}
}

// TestMetamorphicFleetAddingAppIsMonotone: for fleet-sampled devices,
// appending one more catalog app never reduces the total number of
// deliveries under any policy. Wakeups get the weaker treatment the
// system actually supports: an added alarm can anchor an alignment (or
// stretch an awake session) that merges previously-separate wakeups, so
// small per-device dips are legal (observed up to ~16% on dense mixes) —
// bounded here — while the ensemble mean wakeup delta must be positive.
func TestMetamorphicFleetAddingAppIsMonotone(t *testing.T) {
	spec := propSpec(40)
	var deltaSum float64
	pairs := 0
	for i := 0; i < spec.Devices; i++ {
		d := spec.SampleDevice(i)
		have := map[string]bool{}
		for _, w := range d.Workload {
			have[w.Name] = true
		}
		var extra *apps.Spec
		for _, c := range apps.Table3() {
			if !have[c.Name] {
				c := c
				extra = &c
				break
			}
		}
		if extra == nil {
			continue // device already installs the full catalog
		}
		bigger := append(append([]apps.Spec{}, d.Workload...), *extra)
		for _, policy := range []string{"NATIVE", "SIMTY", "NOALIGN"} {
			cfg := spec.Config(d, policy)
			small, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("device %d %s: %v", i, policy, err)
			}
			cfg.Workload = bigger
			big, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("device %d %s: %v", i, policy, err)
			}
			if len(big.Records) < len(small.Records) {
				t.Errorf("device %d %s: deliveries fell %d -> %d after adding %s",
					i, policy, len(small.Records), len(big.Records), extra.Name)
			}
			dip := small.FinalWakeups - big.FinalWakeups
			limit := 6
			if l := small.FinalWakeups / 4; l > limit {
				limit = l
			}
			if dip > limit {
				t.Errorf("device %d %s: wakeups fell %d -> %d (dip %d > limit %d)",
					i, policy, small.FinalWakeups, big.FinalWakeups, dip, limit)
			}
			deltaSum += float64(big.FinalWakeups - small.FinalWakeups)
			pairs++
		}
	}
	if pairs == 0 {
		t.Fatal("no devices sampled")
	}
	if mean := deltaSum / float64(pairs); mean <= 0 {
		t.Errorf("mean wakeup delta after adding an app = %.2f, want positive", mean)
	}
}

// TestPropertyMergeAnyPartitionAnyOrder: the exact-merge contract as a
// property. Split [0, n) into random RunShard ranges, merge them in a
// random permutation, and the Summary bytes equal fleet.Run's — for
// both fleet shapes and several random splits each.
func TestPropertyMergeAnyPartitionAnyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for name, spec := range shardSpecs() {
		t.Run(name, func(t *testing.T) {
			ref, err := Run(context.Background(), spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := marshalSummary(t, ref.Agg.Summary())
			n := ref.Spec.Devices
			for trial := 0; trial < 4; trial++ {
				var shards []*ShardAggregate
				for lo := 0; lo < n; {
					hi := min(n, lo+1+rng.Intn(n/2))
					sa, err := RunShard(context.Background(), spec, lo, hi, 2)
					if err != nil {
						t.Fatal(err)
					}
					shards = append(shards, sa)
					lo = hi
				}
				agg := NewAggregate(spec)
				for _, i := range rng.Perm(len(shards)) {
					if err := agg.MergeShard(shards[i]); err != nil {
						t.Fatalf("trial %d: %v", trial, err)
					}
				}
				if got := marshalSummary(t, agg.Summary()); string(got) != string(want) {
					t.Fatalf("trial %d: %d shards merged in random order diverged from fleet.Run:\n got %s\nwant %s",
						trial, len(shards), got, want)
				}
			}
		})
	}
}
