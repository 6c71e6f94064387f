package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/runstore"
	"repro/internal/shardexec"
)

// TestMain lets the test binary double as the shard worker for the
// sharded-execution tests (the same re-exec scheme internal/shardexec
// uses): the service's WorkerArgv points back at this binary, and the
// env marker routes the child into the worker entry point.
// HTTPAPI_TEST_FAIL_SHARD injects one transient fault — the named shard
// exits non-zero on its first attempt — so the retry path is observable
// over HTTP.
func TestMain(m *testing.M) {
	if os.Getenv("HTTPAPI_TEST_SHARDWORKER") == "1" {
		os.Exit(shardedTestWorker())
	}
	os.Exit(m.Run())
}

func shardedTestWorker() int {
	input, err := io.ReadAll(os.Stdin)
	if err != nil {
		return 1
	}
	if idx := os.Getenv("HTTPAPI_TEST_FAIL_SHARD"); idx != "" {
		var mf shardexec.Manifest
		if json.Unmarshal(input, &mf) == nil && strconv.Itoa(mf.Index) == idx && mf.Attempt == 1 {
			return 3
		}
	}
	return shardexec.WorkerMain(context.Background(), bytes.NewReader(input), os.Stdout, os.Stderr)
}

// newShardedTestServer stands the service up in multi-process mode: two
// worker processes, 16-device shards, this test binary as the worker,
// an aggregate snapshot every snapshotEvery devices.
func newShardedTestServer(t *testing.T, snapshotEvery int, extraEnv ...string) (*httptest.Server, *runstore.Store) {
	t.Helper()
	store := runstore.New(2)
	ts := httptest.NewServer(New(store, Options{Exec: shardexec.Options{
		SnapshotEvery: snapshotEvery,
		Procs:         2,
		ShardSize:     16,
		WorkerArgv:    []string{os.Args[0]},
		WorkerEnv:     append([]string{"HTTPAPI_TEST_SHARDWORKER=1"}, extraEnv...),
	}}))
	t.Cleanup(func() {
		ts.Close()
		store.CancelAll()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		store.Drain(ctx)
	})
	return ts, store
}

// TestShardedFleetByteIdentity: a fleet executed across worker
// processes stores the same aggregate, byte for byte, as a direct
// in-process fleet.Run — and the run snapshot reports one attempt per
// shard.
func TestShardedFleetByteIdentity(t *testing.T) {
	ts, _ := newShardedTestServer(t, 100)
	status, run := post(t, ts.URL+"/fleets", fleetSpecJSON)
	if status != http.StatusAccepted {
		t.Fatalf("POST /fleets = %d", status)
	}
	e := waitTerminal(t, ts.URL+"/fleets/"+run.ID)
	if e.State != runstore.StateDone {
		t.Fatalf("state = %s (%s)", e.State, e.Error)
	}
	want := directSummaryJSON(t, fleetSpecJSON)
	if !bytes.Equal(e.Result, want) {
		t.Fatalf("sharded summary diverges from direct fleet.Run:\nhttp   %s\ndirect %s", e.Result, want)
	}
	var snap runstore.Run
	if status, blob := getJSON(t, ts.URL+"/fleets/"+run.ID, &snap); status != http.StatusOK {
		t.Fatalf("GET = %d: %s", status, blob)
	}
	// 60 devices in 16-device shards: 4 shards, one attempt each.
	if snap.Attempts != 4 || snap.Retries != 0 {
		t.Fatalf("attempts=%d retries=%d, want 4 and 0", snap.Attempts, snap.Retries)
	}
}

// TestShardedFleetSSERetry injects a first-attempt crash into one shard
// and tails the SSE stream: the "shard" lifecycle events must show the
// retry, the stored counters must count it, and the final aggregate
// must still be byte-identical to the crash-free direct run.
func TestShardedFleetSSERetry(t *testing.T) {
	ts, _ := newShardedTestServer(t, 100, "HTTPAPI_TEST_FAIL_SHARD=1")
	status, run := post(t, ts.URL+"/fleets", fleetSpecJSON)
	if status != http.StatusAccepted {
		t.Fatalf("POST /fleets = %d", status)
	}
	events := tailSSE(t, ts.URL+"/fleets/"+run.ID+"/events")
	var retries, oks int
	for _, ev := range events {
		if ev.Type != "shard" {
			continue
		}
		var sd shardData
		if err := json.Unmarshal(ev.Data, &sd); err != nil {
			t.Fatal(err)
		}
		switch sd.State {
		case "retry":
			retries++
			if sd.Index != 1 || sd.Error == "" {
				t.Fatalf("retry event %+v: want shard 1 with an error", sd)
			}
		case "ok":
			oks++
		}
	}
	// The retry fires after the supervisor's backoff, long after the SSE
	// subscription attaches, so it cannot be missed.
	if retries != 1 {
		t.Fatalf("saw %d retry events, want 1", retries)
	}
	if oks == 0 {
		t.Fatal("no shard ok events on the stream")
	}

	e := waitTerminal(t, ts.URL+"/fleets/"+run.ID)
	if e.State != runstore.StateDone {
		t.Fatalf("state = %s (%s)", e.State, e.Error)
	}
	if want := directSummaryJSON(t, fleetSpecJSON); !bytes.Equal(e.Result, want) {
		t.Fatal("summary diverged after an injected worker crash")
	}
	var snap runstore.Run
	getJSON(t, ts.URL+"/fleets/"+run.ID, &snap)
	if snap.Attempts != 5 || snap.Retries != 1 {
		t.Fatalf("attempts=%d retries=%d, want 5 and 1", snap.Attempts, snap.Retries)
	}
}

// TestShardedFleetSnapshotsCountDevices: SnapshotEvery counts devices
// with worker processes too, not merged shards. The 60-device fleet
// merges its shards of 16, 16, 16 and 12 devices in completion order; a
// snapshot follows each merge that reaches or crosses a multiple of
// SnapshotEvery, and the last merge always snapshots. The stream then
// repeats the stored aggregate as its terminal snapshot. Every merge
// crosses a multiple of 10, so that cadence snapshots all four.
func TestShardedFleetSnapshotsCountDevices(t *testing.T) {
	for _, tc := range []struct {
		every, count int // count 0: depends on the completion order
	}{
		{10, 5},
		{24, 0},
		{100, 2},
	} {
		t.Run(strconv.Itoa(tc.every), func(t *testing.T) {
			ts, store := newShardedTestServer(t, tc.every)
			// Hold both execution slots so the fleet cannot publish a
			// frame before the SSE subscription is attached.
			release := make(chan struct{})
			for i := 0; i < 2; i++ {
				if _, err := store.Submit("run", func(ctx context.Context, h runstore.Handle) (any, error) {
					select {
					case <-release:
					case <-ctx.Done():
					}
					return nil, nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			status, run := post(t, ts.URL+"/fleets", fleetSpecJSON)
			if status != http.StatusAccepted {
				close(release)
				t.Fatalf("POST /fleets = %d", status)
			}
			events := tailSSEAttached(t, ts.URL+"/fleets/"+run.ID+"/events", func() { close(release) })
			var got []int
			for _, ev := range events {
				if ev.Type != "snapshot" {
					continue
				}
				var sd snapshotData
				if err := json.Unmarshal(ev.Data, &sd); err != nil {
					t.Fatal(err)
				}
				got = append(got, sd.Done)
			}
			if n := len(got); n < 2 || got[n-1] != 60 || got[n-2] != 60 || (tc.count > 0 && n != tc.count) {
				t.Fatalf("snapshots at %v devices, want %d ending in the final merge and the terminal repeat", got, tc.count)
			}
			prev := 0
			for _, n := range got[:len(got)-1] {
				// A snapshot follows a merge: n is a sum of shard sizes
				// that crossed a multiple of every since the last one.
				if n <= prev || n%16 != 0 && n%16 != 12 || (n/tc.every == prev/tc.every && n != 60) {
					t.Fatalf("snapshots at %v devices: %d is not a crossing merge", got, n)
				}
				prev = n
			}
		})
	}
}
