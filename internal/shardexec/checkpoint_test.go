package shardexec

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleet"
)

// TestCheckpointResumeRunsOnlyMissingShards is the acceptance scenario:
// a run dies with a poison shard, a second run resumes from the
// checkpoint with the fault removed, and the attempt counters prove
// that only the missing shard was re-executed — with the final summary
// byte-identical to a crash-free single-process run.
func TestCheckpointResumeRunsOnlyMissingShards(t *testing.T) {
	spec := testSpec(true)
	want := cleanSummary(t, spec)
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")

	// First run: a single sequential worker completes and checkpoints
	// shards 0–3, then the final shard dies on every attempt and is
	// quarantined (last shard, so no later work races the abort).
	opts := testOptions(t, map[string]fault{"4": {Mode: "sigkill"}})
	opts.Procs = 1
	opts.ShardSize = 4
	opts.MaxAttempts = 1
	opts.Checkpoint = ckpt
	res, err := Run(context.Background(), spec, opts)
	if err == nil {
		t.Fatal("first run survived its poison shard")
	}
	if res.Agg.Devices() != 16 {
		t.Fatalf("first run merged %d devices, want 16 (shards 0–3)", res.Agg.Devices())
	}

	// Second run: fault removed, resume on. Only shard 4 — the one the
	// checkpoint is missing — may execute.
	opts2 := testOptions(t, nil)
	opts2.Procs = 2
	opts2.ShardSize = 4
	opts2.Checkpoint = ckpt
	opts2.Resume = true
	res2, err := Run(context.Background(), spec, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Attempts != 1 || res2.Retries != 0 {
		t.Fatalf("resume launched %d attempts (%d retries), want exactly 1 — the missing shard", res2.Attempts, res2.Retries)
	}
	if res2.Resumed != 4 {
		t.Fatalf("resume recovered %d shards from the checkpoint, want 4", res2.Resumed)
	}
	if got := resultSummary(t, res2); !bytes.Equal(got, want) {
		t.Fatalf("resumed summary diverged from crash-free run:\n got %s\nwant %s", got, want)
	}
}

// TestCheckpointResumeAfterCompletion: resuming a finished checkpoint
// re-runs nothing at all.
func TestCheckpointResumeAfterCompletion(t *testing.T) {
	spec := testSpec(false)
	want := cleanSummary(t, spec)
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")

	opts := testOptions(t, nil)
	opts.ShardSize = 5
	opts.Checkpoint = ckpt
	if _, err := Run(context.Background(), spec, opts); err != nil {
		t.Fatal(err)
	}

	opts2 := testOptions(t, nil)
	opts2.ShardSize = 5
	opts2.Checkpoint = ckpt
	opts2.Resume = true
	res, err := Run(context.Background(), spec, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 0 || res.Resumed != res.Shards {
		t.Fatalf("attempts=%d resumed=%d of %d, want 0 attempts and a full resume", res.Attempts, res.Resumed, res.Shards)
	}
	if got := resultSummary(t, res); !bytes.Equal(got, want) {
		t.Fatal("fully-resumed summary diverged")
	}
}

// TestCheckpointToleratesTornTail: a crash mid-append leaves a torn
// final record; resume truncates it and re-runs only what the torn
// record would have covered.
func TestCheckpointToleratesTornTail(t *testing.T) {
	spec := testSpec(false)
	want := cleanSummary(t, spec)
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")

	opts := testOptions(t, nil)
	opts.ShardSize = 4
	opts.Checkpoint = ckpt
	if _, err := Run(context.Background(), spec, opts); err != nil {
		t.Fatal(err)
	}
	// Simulate dying mid-write: chop the file mid-record, then smear a
	// few garbage bytes on the end.
	blob, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(blob[:len(blob)-37], 0xde, 0xad, 0xbe)
	if err := os.WriteFile(ckpt, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	opts2 := testOptions(t, nil)
	opts2.ShardSize = 4
	opts2.Checkpoint = ckpt
	opts2.Resume = true
	res, err := Run(context.Background(), spec, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts >= res.Shards {
		t.Fatalf("torn-tail resume re-ran %d of %d shards; the intact prefix was not reused", res.Attempts, res.Shards)
	}
	if got := resultSummary(t, res); !bytes.Equal(got, want) {
		t.Fatal("torn-tail resumed summary diverged")
	}
}

// TestCheckpointRejectsMismatches: a checkpoint written for a different
// spec, shard size, or device count refuses to resume.
func TestCheckpointRejectsMismatches(t *testing.T) {
	spec := testSpec(false)
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	opts := testOptions(t, nil)
	opts.ShardSize = 4
	opts.Checkpoint = ckpt
	if _, err := Run(context.Background(), spec, opts); err != nil {
		t.Fatal(err)
	}

	edited := spec
	edited.Seed++
	opts2 := testOptions(t, nil)
	opts2.ShardSize = 4
	opts2.Checkpoint = ckpt
	opts2.Resume = true
	if _, err := Run(context.Background(), edited, opts2); err == nil || !strings.Contains(err.Error(), "different spec") {
		t.Fatalf("edited spec resumed onto stale checkpoint: %v", err)
	}

	opts3 := testOptions(t, nil)
	opts3.ShardSize = 5
	opts3.Checkpoint = ckpt
	opts3.Resume = true
	if _, err := Run(context.Background(), spec, opts3); err == nil || !strings.Contains(err.Error(), "shard size") {
		t.Fatalf("mismatched shard size resumed: %v", err)
	}
}

// TestCheckpointWithoutResumeStartsFresh: Resume=false truncates an
// existing log instead of merging into it.
func TestCheckpointWithoutResumeStartsFresh(t *testing.T) {
	spec := testSpec(false)
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	opts := testOptions(t, nil)
	opts.ShardSize = 4
	opts.Checkpoint = ckpt
	if _, err := Run(context.Background(), spec, opts); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), spec, opts) // no Resume
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != 0 || res.Attempts != res.Shards {
		t.Fatalf("resumed=%d attempts=%d: Resume=false reused the old checkpoint", res.Resumed, res.Attempts)
	}
}

// TestCheckpointIsConcatenatedFrames: the log holds nothing but the
// merged shards' WFSH frames, byte for byte, in merge order (one
// sequential worker merges in plan order).
func TestCheckpointIsConcatenatedFrames(t *testing.T) {
	spec := testSpec(true)
	ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
	opts := testOptions(t, nil)
	opts.Procs = 1
	opts.ShardSize = 6
	opts.Checkpoint = ckpt
	res, err := Run(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < res.Shards; i++ {
		lo, hi := i*6, min((i+1)*6, spec.Devices)
		want = append(want, shardFrame(t, spec, i, lo, hi)...)
	}
	got, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint is %d bytes, want the %d-byte concatenation of the %d merged frames", len(got), len(want), res.Shards)
	}
}

// shardFrame is the WFSH frame a worker returns for shard index [lo, hi).
func shardFrame(t testing.TB, spec fleet.Spec, index, lo, hi int) []byte {
	t.Helper()
	sa, err := fleet.RunShard(context.Background(), spec, lo, hi, 1)
	if err != nil {
		t.Fatal(err)
	}
	sa.Index = index
	return fleet.EncodeShard(sa)
}

// TestCheckpointRejectsGarbageFile: a file that is not a checkpoint of
// the current format — garbage, or a log of the old record format —
// fails the resume loudly and is left byte-for-byte untouched.
func TestCheckpointRejectsGarbageFile(t *testing.T) {
	spec := testSpec(false)
	for name, blob := range map[string][]byte{
		"garbage": []byte("this is not a checkpoint"),
		"v2 log":  v2Log(t, spec, shardFrame(t, spec, 0, 0, 10)),
	} {
		ckpt := filepath.Join(t.TempDir(), "fleet.ckpt")
		if err := os.WriteFile(ckpt, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		opts := testOptions(t, nil)
		opts.ShardSize = 10
		opts.Checkpoint = ckpt
		opts.Resume = true
		if _, err := Run(context.Background(), spec, opts); err == nil {
			t.Fatalf("%s: checkpoint accepted", name)
		}
		if after, err := os.ReadFile(ckpt); err != nil || !bytes.Equal(after, blob) {
			t.Fatalf("%s: refused checkpoint was modified (%d bytes → %d, %v)", name, len(blob), len(after), err)
		}
	}
}

// v2Log builds a checkpoint in the previous on-disk format: a record log
// [type u8][length u32][payload][crc32c u32] of one 'H' JSON header and
// one 'S' record per frame.
func v2Log(t testing.TB, spec fleet.Spec, frames ...[]byte) []byte {
	t.Helper()
	hash := fleet.SpecHash(spec)
	hdr, err := json.Marshal(map[string]any{
		"version": 2, "spec_hash": hex.EncodeToString(hash[:]), "shard_size": 10,
		"devices": spec.WithDefaults().Devices, "spec": spec.WithDefaults(),
	})
	if err != nil {
		t.Fatal(err)
	}
	var log []byte
	record := func(typ byte, payload []byte) {
		start := len(log)
		log = append(log, typ)
		log = binary.LittleEndian.AppendUint32(log, uint32(len(payload)))
		log = append(log, payload...)
		log = binary.LittleEndian.AppendUint32(log, crc32.Checksum(log[start:], crc32.MakeTable(crc32.Castagnoli)))
	}
	record('H', hdr)
	for _, f := range frames {
		record('S', f)
	}
	return log
}

// TestCheckpointValidatesRecordsAgainstPlan drives resume over
// hand-built logs: a repeated shard record is merged once, never
// double-counted, and a record whose (Index, Lo, Hi) is not in the plan
// fails the resume before anything runs.
func TestCheckpointValidatesRecordsAgainstPlan(t *testing.T) {
	spec := testSpec(false) // 20 devices: shards [0, 10) and [10, 20)
	want := cleanSummary(t, spec)
	frame := func(index, lo, hi int) []byte { return shardFrame(t, spec, index, lo, hi) }
	writeLog := func(frames ...[]byte) string {
		path := filepath.Join(t.TempDir(), "fleet.ckpt")
		if err := os.WriteFile(path, bytes.Join(frames, nil), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	resume := func(path string) (*Result, error) {
		opts := testOptions(t, nil)
		opts.ShardSize = 10
		opts.Checkpoint = path
		opts.Resume = true
		return Run(context.Background(), spec, opts)
	}
	s0, s1 := frame(0, 0, 10), frame(1, 10, 20)

	for name, c := range map[string]struct {
		log      [][]byte
		attempts int
	}{
		"every shard repeated": {[][]byte{s0, s1, s0, s1, s0}, 0},
		"one shard repeated":   {[][]byte{s1, s1}, 1},
	} {
		res, err := resume(writeLog(c.log...))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Attempts != c.attempts || res.Completed != 2 || res.Resumed != 2-c.attempts {
			t.Fatalf("%s: attempts=%d completed=%d resumed=%d, want %d, 2, %d",
				name, res.Attempts, res.Completed, res.Resumed, c.attempts, 2-c.attempts)
		}
		if got := resultSummary(t, res); !bytes.Equal(got, want) {
			t.Fatalf("%s: a repeated record was double-counted:\n got %s\nwant %s", name, got, want)
		}
	}

	for name, bad := range map[string][]byte{
		"index beyond the plan":  frame(2, 10, 20),
		"range of another shard": frame(1, 0, 10),
		"range not in the plan":  frame(0, 0, 5),
	} {
		res, err := resume(writeLog(s0, bad))
		if err == nil || res != nil {
			t.Fatalf("%s: resume = (%v, %v), want (nil, error)", name, res, err)
		}
		if !strings.Contains(err.Error(), "plan") {
			t.Fatalf("%s: error %q does not name the plan", name, err)
		}
	}
}

// FuzzLoadCheckpoint: resuming reads an arbitrary file. The loader never
// panics; it either refuses the file and leaves it unchanged, or
// recovers frames that all decode, whose concatenation is exactly the
// prefix the file was truncated to.
func FuzzLoadCheckpoint(f *testing.F) {
	spec := testSpec(false)
	s0, s1 := shardFrame(f, spec, 0, 0, 10), shardFrame(f, spec, 1, 10, 20)
	clean := append(append([]byte(nil), s0...), s1...)
	f.Add(clean)
	f.Add(append(clean[:len(clean)-37:len(clean)-37], 0xde, 0xad, 0xbe))
	f.Add(v2Log(f, spec, s0, s1))
	f.Add([]byte("this is not a checkpoint"))
	// Inputs run one at a time within a fuzz process, so they can share
	// one path.
	path := filepath.Join(f.TempDir(), "fleet.ckpt")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, shards, err := openCheckpoint(path, true)
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(after, data) {
				t.Fatalf("refused checkpoint was modified: %v", err)
			}
			return
		}
		ck.Close()
		var frames []byte
		for _, sa := range shards {
			frame := fleet.EncodeShard(sa)
			if _, err := fleet.DecodeShard(frame); err != nil {
				t.Fatalf("recovered shard does not decode: %v", err)
			}
			frames = append(frames, frame...)
		}
		if !bytes.Equal(after, frames) || !bytes.HasPrefix(data, after) {
			t.Fatalf("file truncated to %d of %d bytes, recovered frames span %d", len(after), len(data), len(frames))
		}
	})
}
