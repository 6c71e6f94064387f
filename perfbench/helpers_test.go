package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 99: 99, 100: 100, 0: 1, 0.5: 1} {
		if got := quantile(xs, p); got != want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if got := quantile([]float64{7}, 99); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(quantile(nil, 50)) {
		t.Error("quantile of no samples should be NaN")
	}
	d := summarize([]float64{3, 1, 2, math.Inf(1)})
	if d.n != 4 || d.p50 != 2 || !math.IsInf(d.p99, 1) {
		t.Errorf("summarize = %+v; a failed request (+Inf) must land in the tail", d)
	}
}

func TestOpenLoopAccounting(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		name                   string
		t                      openLoopTiming
		latency, wait, lagWant time.Duration
	}{
		// The connection was free before the request was due: the
		// generator slept and woke 1 ms late.
		{"idle connection", openLoopTiming{due: 10 * ms, freeAt: 5 * ms, sentAt: 11 * ms, doneAt: 20 * ms}, 10 * ms, 0, ms},
		// Both connections were busy until 15 ms: the 5 ms wait is the
		// system's queueing, charged to latency, not to the generator.
		{"busy connections", openLoopTiming{due: 10 * ms, freeAt: 15 * ms, sentAt: 15*ms + 200*time.Microsecond, doneAt: 30 * ms}, 20 * ms, 5 * ms, 200 * time.Microsecond},
		{"sent on time", openLoopTiming{due: 10 * ms, freeAt: 10 * ms, sentAt: 10 * ms, doneAt: 12 * ms}, 2 * ms, 0, 0},
	} {
		if got := c.t.latency(); got != c.latency {
			t.Errorf("%s: latency %v, want %v", c.name, got, c.latency)
		}
		if got := c.t.clientWait(); got != c.wait {
			t.Errorf("%s: client wait %v, want %v", c.name, got, c.wait)
		}
		if got := c.t.lag(); got != c.lagWant {
			t.Errorf("%s: lag %v, want %v", c.name, got, c.lagWant)
		}
	}
}

func TestPoissonDue(t *testing.T) {
	const n, dur = 5000, 10 * time.Second
	a := poissonDue(rand.New(rand.NewSource(7)), n, dur)
	b := poissonDue(rand.New(rand.NewSource(7)), n, dur)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if len(a) != n {
		t.Fatalf("%d arrivals, want %d", len(a), n)
	}
	var gaps []float64
	for i, d := range a {
		if d < 0 || d >= dur {
			t.Fatalf("arrival %v outside [0, %v)", d, dur)
		}
		if i > 0 {
			if d < a[i-1] {
				t.Fatalf("arrivals not sorted at %d", i)
			}
			gaps = append(gaps, float64(d-a[i-1]))
		}
	}
	// Exponential gaps: mean dur/n and coefficient of variation ≈ 1.
	var sum, sq float64
	for _, g := range gaps {
		sum += g
	}
	mean := sum / float64(len(gaps))
	for _, g := range gaps {
		sq += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(sq/float64(len(gaps))) / mean
	if want := float64(dur) / n; math.Abs(mean-want)/want > 0.05 {
		t.Errorf("mean gap %v, want ≈ %v", time.Duration(mean), time.Duration(want))
	}
	if cv < 0.9 || cv > 1.1 {
		t.Errorf("gap coefficient of variation %.3f, want ≈ 1 (Poisson)", cv)
	}
}

func TestBuildPhaseMix(t *testing.T) {
	reqs := buildPhase(rand.New(rand.NewSource(3)), 200, 5*time.Second, steadySpec(), 100)
	if len(reqs) != 1000 {
		t.Fatalf("%d requests, want rate × duration = 1000", len(reqs))
	}
	fleets := 0
	for i, r := range reqs {
		if r.id != 100+i {
			t.Fatalf("request %d: id %d", i, r.id)
		}
		if i > 0 && r.timing.due < reqs[i-1].timing.due {
			t.Fatalf("request %d due before request %d", i, i-1)
		}
		if !r.fleet {
			if _, err := r.run.Config(); err != nil {
				t.Fatalf("single run %d: %v", i, err)
			}
			continue
		}
		// One fleet request in each of the 20 equal slots.
		if slot := int(r.timing.due / (5 * time.Second / 20)); slot != fleets {
			t.Fatalf("fleet request %d in slot %d, want %d", fleets, slot, fleets)
		}
		fleets++
		spec, err := fleet.ReadSpec(bytes.NewReader(r.body))
		if err != nil {
			t.Fatalf("fleet request %d: %v", i, err)
		}
		if spec.Devices != fleetDevices {
			t.Fatalf("fleet request %d: %d devices", i, spec.Devices)
		}
	}
	if fleets != 20 {
		t.Errorf("%d fleet requests, want a fixed 2%% = 20", fleets)
	}
}

func TestFrameLayer(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/simclock.(*Clock).Run"}, "simclock"},
		{[]string{"repro/internal/sim.(*runEnv).observe"}, "sim"},
		{[]string{"repro/internal/sim.runIsolated[...]"}, "sim"},
		{[]string{"repro/internal/hw.Set.Components"}, "hw"},
		{[]string{"repro/internal/fleet.(*Aggregate).MergeShard"}, "fleet"},
		{[]string{"net/http.(*conn).serve"}, "nethttp"},
		{[]string{"net.(*netFD).Read", "net/http.(*persistConn).readLoop"}, "nethttp"},
		// A standard-library leaf is charged to the layer that called it.
		{[]string{"math.Exp", "sort.Search", "repro/internal/core.(*Simty).Align"}, "core"},
		// Allocation reached from a layer is allocator work.
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "repro/internal/hw.Set.Components"}, "gc_alloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc_alloc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
		// Packages outside the layer list fall through to their caller.
		{[]string{"repro/internal/trace.(*Logger).Log", "repro/internal/alarm.(*Manager).deliver"}, "alarm"},
		{[]string{"main.run"}, "other"},
	} {
		if got := frameLayer(c.stack); got != c.want {
			t.Errorf("frameLayer(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
	if got := funcPackage("repro/internal/simclock.(*Clock).Run"); got != "repro/internal/simclock" {
		t.Errorf("funcPackage = %q", got)
	}
	if got := funcPackage("runtime.mallocgc"); got != "runtime" {
		t.Errorf("funcPackage = %q", got)
	}
}

// pb is a tiny protobuf encoder for building test profiles.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(num<<3))
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(num int, v []byte) pb {
	b = binary.AppendUvarint(b, uint64(num<<3|2))
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func TestProfileShares(t *testing.T) {
	// Function and location i hold strs[i]. One sample spends 30 ns in
	// simclock; the other 10 ns in mallocgc called from hw.
	strs := []string{"", "repro/internal/simclock.(*Clock).Run", "runtime.mallocgc", "repro/internal/hw.Set.Components"}
	var p pb
	packed := func(xs ...uint64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.AppendUvarint(b, x)
		}
		return b
	}
	p = p.bytes(2, pb(nil).bytes(1, packed(1)).bytes(2, packed(3, 30)))
	// An unpacked sample, as older encoders write them.
	p = p.bytes(2, pb(nil).varint(1, 2).varint(1, 3).varint(2, 1).varint(2, 10))
	for id := uint64(1); id <= 3; id++ {
		p = p.bytes(4, pb(nil).varint(1, id).bytes(4, pb(nil).varint(1, id)))
		p = p.bytes(5, pb(nil).varint(1, id).varint(2, id))
	}
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()
	shares, samples, err := profileShares([][]byte{gz.Bytes(), nil})
	if err != nil {
		t.Fatal(err)
	}
	if samples != 2 {
		t.Errorf("%d samples, want 2", samples)
	}
	if shares["simclock"] != 75 || shares["gc_alloc"] != 25 || shares["hw"] != 0 {
		t.Errorf("shares = %v, want simclock 75%% and gc_alloc 25%%", shares)
	}
	if _, _, err := profileShares([][]byte{gz.Bytes()[:gz.Len()/2]}); err == nil {
		t.Error("a truncated profile must be rejected")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "fleet.run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sim.run", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "sim.run", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "fleet.fold", Start: 80, End: 110},
	}
	got := selfTimes(spans)
	want := []layerTime{
		{name: "fleet.run", count: 1, total: 100, self: 40},
		{name: "sim.run", count: 2, total: 50, self: 50},
		{name: "fleet.fold", count: 1, total: 30, self: 30},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %+v, want %+v", got, want)
	}
}

func TestReadSSE(t *testing.T) {
	stream := ": heartbeat\n\nevent: state\ndata: {\"state\":\"running\"}\n\nevent: done\ndata: {\"state\":\"done\"}\n\nevent: late\ndata: {}\n\n"
	var events []string
	err := readSSE(strings.NewReader(stream), func(event string, data []byte) bool {
		events = append(events, event+" "+string(data))
		return event != "done"
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{`state {"state":"running"}`, `done {"state":"done"}`}
	if !reflect.DeepEqual(events, want) {
		t.Errorf("events = %q, want %q", events, want)
	}
}

// TestBenchmarkJSONMatchesDefs keeps BENCHMARK.json's metric lists in
// step with the definitions the benchmark reports.
func TestBenchmarkJSONMatchesDefs(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(defs))
		}
		for i := range min(len(got), len(defs)) {
			g, d := got[i], defs[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s/%s, benchmark %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndDefs)
	check("per_layer", bj.PerLayer, perLayerDefs)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q %q, benchmark %q %q", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}
}
