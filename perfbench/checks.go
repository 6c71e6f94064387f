package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/apps"
	"repro/internal/fleet"
	"repro/internal/httpapi"
	"repro/internal/sim"
)

// checkService compares the first completed single run and fleet
// request of a chunk with direct runs of the same inputs: the single-run
// summary field by field (all but the wall time), the fleet summary byte
// for byte, and the fleet's device count against the request.
func checkService(ctx context.Context, client *http.Client, base string, reqs []*svcRequest) []string {
	var problems []string
	checkedSingle, checkedFleet := false, false
	for _, r := range reqs {
		switch {
		case !r.ok:
		case !r.fleet && !checkedSingle:
			checkedSingle = true
			if p := checkSingle(ctx, client, base, r); p != "" {
				problems = append(problems, fmt.Sprintf("svc run %s: %s", r.runID, p))
			}
		case r.fleet && !checkedFleet:
			checkedFleet = true
			problems = append(problems, checkFleet(ctx, r)...)
		}
	}
	return problems
}

func checkSingle(ctx context.Context, client *http.Client, base string, r *svcRequest) string {
	got, err := fetchRunSummary(ctx, client, base, r.runID)
	if err != nil {
		return err.Error()
	}
	cfg, err := r.run.Config()
	if err != nil {
		return "config: " + err.Error()
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return "direct run: " + err.Error()
	}
	got.WallMS = 0
	if want := directSummary(res); got != want {
		return fmt.Sprintf("HTTP result %+v differs from direct sim.Run %+v", got, want)
	}
	return ""
}

func checkFleet(ctx context.Context, r *svcRequest) []string {
	res, err := fleet.Run(ctx, r.spec, fleet.Options{Workers: fleetWorkers})
	if err != nil {
		return []string{fmt.Sprintf("svc fleet %s: direct run: %v", r.runID, err)}
	}
	var problems []string
	if want := marshalSummary(res.Agg.Summary()); !bytes.Equal(r.summary, want) {
		problems = append(problems, fmt.Sprintf("svc fleet %s: SSE summary differs from direct fleet.Run", r.runID))
	}
	var s fleet.Summary
	if err := json.Unmarshal(r.summary, &s); err != nil || s.Devices != r.spec.Devices {
		problems = append(problems, fmt.Sprintf("svc fleet %s: SSE summary holds %d devices, requested %d", r.runID, s.Devices, r.spec.Devices))
	}
	return problems
}

func fetchRunSummary(ctx context.Context, client *http.Client, base, id string) (httpapi.RunSummary, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/runs/"+id, nil)
	if err != nil {
		return httpapi.RunSummary{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return httpapi.RunSummary{}, err
	}
	defer resp.Body.Close()
	var run struct {
		State  string             `json:"state"`
		Result httpapi.RunSummary `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&run); err != nil {
		return httpapi.RunSummary{}, fmt.Errorf("decode: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	if run.State != "done" {
		return httpapi.RunSummary{}, fmt.Errorf("state %q", run.State)
	}
	return run.Result, nil
}

// directSummary is the service's run summary computed from a direct
// sim.Run result, without the wall time.
func directSummary(r *sim.Result) httpapi.RunSummary {
	return httpapi.RunSummary{
		Name:               r.Config.Name,
		Policy:             r.PolicyName,
		EnergyMJ:           r.Energy.TotalMJ(),
		AveragePowerMW:     r.Energy.AveragePowerMW(),
		StandbyHours:       r.StandbyHours,
		Wakeups:            r.FinalWakeups,
		Deliveries:         r.DelaysAll.PerceptibleN + r.DelaysAll.ImperceptibleN,
		Pushes:             r.Pushes,
		PerceptibleDelay:   r.Delays.PerceptibleMean,
		ImperceptibleDelay: r.Delays.ImperceptibleMean,
	}
}

// checkReps reports repetitions whose Summary bytes differ from the
// first, or that folded a different number of devices than requested.
func checkReps(phase string, reps []rep, devices int) []string {
	var problems []string
	for i, r := range reps {
		if r.devices != devices {
			problems = append(problems, fmt.Sprintf("%s rep %d: folded %d devices, requested %d", phase, i, r.devices, devices))
		}
		if !bytes.Equal(r.summary, reps[0].summary) {
			problems = append(problems, fmt.Sprintf("%s rep %d: Summary bytes differ from rep 0", phase, i))
		}
	}
	return problems
}

// zeroWakeDevices sizes the §3.2 guarantee check.
const zeroWakeDevices = 64

// checkZeroWakeLatency runs a small copy of the steady population with
// ZeroWakeLatency set: without wake latency no policy may deliver a
// perceptible alarm past its window or any alarm past its grace end.
func checkZeroWakeLatency(ctx context.Context, seed int64) ([]string, []byte, error) {
	spec := steadySpec()
	spec.Devices, spec.Seed, spec.ZeroWakeLatency = zeroWakeDevices, seed, true
	res, err := fleet.Run(ctx, spec, fleet.Options{Workers: fleetWorkers})
	if err != nil {
		return nil, nil, fmt.Errorf("zero-wake-latency fleet: %w", err)
	}
	s := res.Agg.Summary()
	var problems []string
	for _, p := range []struct {
		name string
		ps   fleet.PolicySummary
	}{{s.BasePolicy, s.Base}, {s.TestPolicy, s.Test}} {
		if p.ps.PerceptibleLate != 0 || p.ps.GraceLate != 0 {
			problems = append(problems, fmt.Sprintf("zero wake latency: %s has %d perceptible-late and %d grace-late deliveries, want 0",
				p.name, p.ps.PerceptibleLate, p.ps.GraceLate))
		}
	}
	return problems, marshalSummary(s), nil
}

// accuracyLine runs the paper's four single-device experiments (light
// and heavy workloads under NATIVE and SIMTY, seed 1, system alarms,
// six one-shots) and reports their savings next to the published
// anchors. It is reported, not gated.
func accuracyLine() (string, error) {
	var out string
	for _, wl := range []struct {
		name  string
		specs []apps.Spec
		paper string
	}{{"light", apps.LightWorkload(), "20%"}, {"heavy", apps.HeavyWorkload(), "25%"}} {
		cfg := sim.Config{Workload: wl.specs, SystemAlarms: true, OneShots: 6, Seed: 1}
		cmp, err := sim.Compare(cfg, "NATIVE", "SIMTY")
		if err != nil {
			return "", err
		}
		out += fmt.Sprintf(" %s: total %.1f%% (paper %s), awake %.1f%% (paper >33%%);",
			wl.name, 100*cmp.TotalSavings(), wl.paper, 100*cmp.AwakeSavings())
	}
	return "accuracy (SIMTY vs NATIVE, seed 1; model validated only against these published anchors):" + out, nil
}
