package shardexec

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/fleet"
)

func validManifest() Manifest {
	return NewManifest(testSpec(false), 2, 8, 12, 1)
}

// TestManifestRoundTrip: encode → parse reproduces the manifest.
func TestManifestRoundTrip(t *testing.T) {
	m := validManifest()
	blob, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseManifest(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if got.Index != m.Index || got.Lo != m.Lo || got.Hi != m.Hi || got.SpecHash != m.SpecHash {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
}

// TestManifestValidation pins every rejection path.
func TestManifestValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Manifest)
		want   string
	}{
		{"wrong version", func(m *Manifest) { m.Version = 99 }, "version"},
		{"negative index", func(m *Manifest) { m.Index = -1 }, "index"},
		{"negative lo", func(m *Manifest) { m.Lo = -1 }, "range"},
		{"empty range", func(m *Manifest) { m.Hi = m.Lo }, "range"},
		{"range past fleet", func(m *Manifest) { m.Hi = m.Spec.Devices + 1 }, "range"},
		{"zero attempt", func(m *Manifest) { m.Attempt = 0 }, "attempt"},
		{"malformed hash", func(m *Manifest) { m.SpecHash = "zz" }, "hash"},
		{"stale hash", func(m *Manifest) { m.Spec.Seed++ }, "hash"},
		{"invalid spec", func(m *Manifest) { m.Spec.Devices = -1 }, "device"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := validManifest()
			tc.mutate(&m)
			err := m.Validate()
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := validManifest().Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
}

// TestParseManifestRejectsBadInput: not JSON, unknown fields, an empty
// manifest, and anything after the manifest object.
func TestParseManifestRejectsBadInput(t *testing.T) {
	if _, err := ParseManifest(strings.NewReader("not json")); err == nil {
		t.Error("non-JSON manifest accepted")
	}
	if _, err := ParseManifest(strings.NewReader(`{"version": 1, "surprise": true}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseManifest(strings.NewReader(`{}`)); err == nil {
		t.Error("empty manifest accepted")
	}
	blob, err := validManifest().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseManifest(bytes.NewReader(append(blob, "\n"...))); err != nil {
		t.Errorf("manifest with trailing newline rejected: %v", err)
	}
	for _, tail := range []string{" garbage", string(blob)} {
		if _, err := ParseManifest(bytes.NewReader(append(append([]byte{}, blob...), tail...))); err == nil {
			t.Errorf("manifest followed by %q accepted", tail)
		}
	}
}

// FuzzManifestJSON: ParseManifest is total over arbitrary bytes — it
// must reject or return a fully validated manifest, and never panic. An
// accepted manifest's shard range must be runnable.
func FuzzManifestJSON(f *testing.F) {
	if blob, err := validManifest().Encode(); err == nil {
		f.Add(blob)
	}
	bad := validManifest()
	bad.SpecHash = strings.Repeat("0", 64)
	if blob, err := bad.Encode(); err == nil {
		f.Add(blob)
	}
	f.Add([]byte(`{"version": 1}`))
	f.Add([]byte(`{"version": 1, "spec": {"devices": 4}, "lo": 0, "hi": 4}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"version": 1} garbage`))
	f.Add([]byte(`{"version": 1, "lo": -5, "hi": -1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Everything ParseManifest accepts must satisfy the invariants
		// the worker relies on without re-checking.
		spec := m.Spec.WithDefaults()
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted manifest carries invalid spec: %v", err)
		}
		if m.Lo < 0 || m.Hi <= m.Lo || m.Hi > spec.Devices {
			t.Fatalf("accepted manifest carries bad range [%d, %d)", m.Lo, m.Hi)
		}
		if want := fleet.SpecHash(spec); m.SpecHash != hex.EncodeToString(want[:]) {
			t.Fatal("accepted manifest carries stale hash")
		}
	})
}
