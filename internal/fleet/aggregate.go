package fleet

import (
	"repro/internal/backend"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Dist is the JSON snapshot of one metric's distribution across the
// fleet. N, Min and Max are exact; Mean, Std and CI95 are rounded once
// from exact sums; P50/P95/P99 come from a log-bucketed sketch and are
// within relative error stats.Alpha (1/128) of the nearest-rank order
// statistic.
type Dist struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	CI95 float64 `json:"ci95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
}

func dist(m *stats.Mergeable) Dist {
	s := m.Summary()
	return Dist{
		N:    s.N,
		Mean: s.Mean,
		Std:  s.Std,
		CI95: s.CI95,
		Min:  s.Min,
		Max:  s.Max,
		P50:  m.Quantile(0.50),
		P95:  m.Quantile(0.95),
		P99:  m.Quantile(0.99),
	}
}

// PolicySummary is the JSON snapshot of one policy's behaviour across
// the fleet.
type PolicySummary struct {
	EnergyMJ     Dist `json:"energy_mj"`
	StandbyHours Dist `json:"standby_h"`
	Wakeups      Dist `json:"wakeups"`
	// ImperceptibleDelay is the distribution of per-device mean
	// normalized imperceptible delays (app alarms only, Figure 4's
	// population).
	ImperceptibleDelay Dist `json:"imperceptible_delay"`
	// PerceptibleLate counts perceptible deliveries past their window
	// end across the whole fleet — the paper's headline guarantee says
	// this must be 0 for SIMTY and NATIVE.
	PerceptibleLate int `json:"perceptible_late"`
	// GraceLate counts wakeup deliveries past their grace end.
	GraceLate int `json:"grace_late"`
	// MaxPerceptibleDelay is the largest normalized perceptible delay
	// observed anywhere in the fleet.
	MaxPerceptibleDelay float64 `json:"max_perceptible_delay"`
	// AoIMeanAge is the distribution of per-device time-average
	// Age-of-Information (seconds) over app alarms — the freshness side
	// of the energy/staleness trade the tournament ranks.
	AoIMeanAge Dist `json:"aoi_mean_age_s"`
	// Backend is the backend-load aggregate under this policy: the
	// folded retry-pipeline counters plus the server-queue replay of the
	// fleet's merged request arrivals. Nil — and absent from the JSON —
	// when the spec carries no backend model, so pre-backend summaries
	// hash unchanged.
	Backend *backend.Summary `json:"backend,omitempty"`
}

// SavingsSummary is the JSON snapshot of the per-device base-vs-test
// comparison distributions (fractions, not percent).
type SavingsSummary struct {
	Total            Dist `json:"total"`
	Awake            Dist `json:"awake"`
	StandbyExtension Dist `json:"standby_extension"`
	WakeupReduction  Dist `json:"wakeup_reduction"`
}

// Summary is the full deterministic JSON aggregate of a fleet run. It
// deliberately excludes wall-clock time and anything else that varies
// between repeats: marshalling a Summary is byte-identical for a fixed
// Spec across worker counts, shard sizes and merge orders.
type Summary struct {
	Devices    int            `json:"devices"`
	Seed       int64          `json:"seed"`
	Hours      float64        `json:"hours"`
	BasePolicy string         `json:"base_policy"`
	TestPolicy string         `json:"test_policy"`
	Base       PolicySummary  `json:"base"`
	Test       PolicySummary  `json:"test"`
	Savings    SavingsSummary `json:"savings"`
	// LeakyDevices counts devices that carried an injected wakelock
	// leak.
	LeakyDevices int `json:"leaky_devices,omitempty"`
}

// policyAcc accumulates one policy's metrics. Every field merges
// exactly — Mergeable states, integer counters, a max, and the backend's
// integer counters and arrival histogram — so any fold order agrees.
type policyAcc struct {
	energy, standby, wakeups, imperc, aoi stats.Mergeable
	perceptibleLate, graceLate            int
	maxPerceptibleDelay                   float64
	// bk and hist stay zero/nil while the spec carries no backend model.
	bk   backend.DeviceStats
	hist *backend.Histogram
}

func newPolicyAcc(m *backend.Model) *policyAcc {
	p := &policyAcc{}
	if m != nil {
		p.hist = backend.NewHistogram(m.WithDefaults().BucketWidth)
	}
	return p
}

// mergeables lists the distributions in their encoding order.
func (p *policyAcc) mergeables() [5]*stats.Mergeable {
	return [...]*stats.Mergeable{&p.energy, &p.standby, &p.wakeups, &p.imperc, &p.aoi}
}

// observe folds one run. The guarantee counters fold the run's streamed
// Guarantees, so NoTrace runs (no Records at all) aggregate exactly.
func (p *policyAcc) observe(r *sim.Result) {
	g := r.Guarantees
	p.energy.Add(r.Energy.TotalMJ())
	p.standby.Add(r.StandbyHours)
	p.wakeups.Add(float64(r.FinalWakeups))
	p.imperc.Add(r.Delays.ImperceptibleMean)
	p.aoi.Add(r.AoI.MeanAgeSec)
	p.perceptibleLate += g.PerceptibleLate
	p.graceLate += g.GraceLate
	p.maxPerceptibleDelay = max(p.maxPerceptibleDelay, g.MaxPerceptibleDelay)
	if p.hist != nil && r.Backend != nil {
		p.bk.Merge(r.Backend)
		p.hist.Merge(r.Backend.Hist)
	}
}

func (p *policyAcc) summary(m *backend.Model) PolicySummary {
	ps := PolicySummary{
		EnergyMJ:            dist(&p.energy),
		StandbyHours:        dist(&p.standby),
		Wakeups:             dist(&p.wakeups),
		ImperceptibleDelay:  dist(&p.imperc),
		PerceptibleLate:     p.perceptibleLate,
		GraceLate:           p.graceLate,
		MaxPerceptibleDelay: p.maxPerceptibleDelay,
		AoIMeanAge:          dist(&p.aoi),
	}
	if m != nil && p.hist != nil {
		// Replay the fleet's merged arrivals through the server queue,
		// then attach the folded device-side counters.
		bs := backend.Serve(p.hist, *m)
		bs.Requests = p.bk.Requests
		bs.Shed = p.bk.Shed
		bs.Retries = p.bk.Retries
		bs.Redelivered = p.bk.Redelivered
		bs.Dropped = p.bk.Dropped
		bs.Pending = p.bk.Pending
		ps.Backend = &bs
	}
	return ps
}

// Aggregate is the streaming fleet aggregate: O(1) space in the number
// of devices, and exactly mergeable. Folding devices in any order, or
// merging shard aggregates (MergeShard) in any order, gives the same
// state and therefore the same Summary bytes.
type Aggregate struct {
	spec                          Spec
	hash                          [32]byte // SpecHash(spec)
	devices, leaky                int
	base, test                    *policyAcc
	total, awake, standby, wakeup stats.Mergeable
}

// NewAggregate returns an empty aggregate for the spec, ready to fold
// devices or merge whole shards (MergeShard).
func NewAggregate(spec Spec) *Aggregate {
	spec = spec.WithDefaults()
	return &Aggregate{spec: spec, hash: SpecHash(spec), base: newPolicyAcc(spec.Backend), test: newPolicyAcc(spec.Backend)}
}

// savings lists the comparison distributions in their encoding order.
func (a *Aggregate) savings() [4]*stats.Mergeable {
	return [...]*stats.Mergeable{&a.total, &a.awake, &a.standby, &a.wakeup}
}

// observe folds one device's base/test run pair into the aggregate.
func (a *Aggregate) observe(d Device, base, test *sim.Result) {
	a.devices++
	if d.LeakApp != "" {
		a.leaky++
	}
	a.base.observe(base)
	a.test.observe(test)
	cmp := sim.Comparison{Base: base, Test: test}
	a.total.Add(cmp.TotalSavings())
	a.awake.Add(cmp.AwakeSavings())
	a.standby.Add(cmp.StandbyExtension())
	a.wakeup.Add(cmp.WakeupReduction())
}

// Devices reports how many devices have been folded in.
func (a *Aggregate) Devices() int { return a.devices }

// Summary snapshots the aggregate into its deterministic JSON form.
func (a *Aggregate) Summary() Summary {
	s := a.spec
	return Summary{
		Devices:    a.devices,
		Seed:       s.Seed,
		Hours:      s.Hours,
		BasePolicy: s.BasePolicy,
		TestPolicy: s.TestPolicy,
		Base:       a.base.summary(s.Backend),
		Test:       a.test.summary(s.Backend),
		Savings: SavingsSummary{
			Total:            dist(&a.total),
			Awake:            dist(&a.awake),
			StandbyExtension: dist(&a.standby),
			WakeupReduction:  dist(&a.wakeup),
		},
		LeakyDevices: a.leaky,
	}
}
