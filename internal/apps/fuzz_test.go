package apps

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzSpecJSON feeds arbitrary bytes through ReadSpecs: malformed input
// must come back as an error, never a panic, and accepted specs must
// survive a write/read round trip. ReadSpecs guards the simulator's
// only user-facing input format (wakesim -spec), so a crash here is a
// crash an arbitrary spec file can trigger.
func FuzzSpecJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteSpecs(&buf, Table3()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"name":"A","period_s":60,"task_s":2}]`))
	f.Add([]byte(`[{"name":"A","period_s":1e-9}]`))
	f.Add([]byte(`[{"name":"A","period_s":1e300}]`))
	f.Add([]byte(`[{"name":"A","period_s":NaN}]`))
	f.Add([]byte(`{"not":"a list"}`))
	f.Add([]byte(`[{"name":"A","period_s":60,"hw":["warp-drive"]}]`))
	f.Add([]byte(`[{"name":"A","period_s":60,"nonwakeup":true}]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		specs, err := ReadSpecs(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panicking on it is not
		}
		// Accepted specs must be usable: every period positive (Install
		// divides by it) and the set must round-trip through WriteSpecs.
		for _, s := range specs {
			if s.Period <= 0 {
				t.Fatalf("accepted spec %q with period %v", s.Name, s.Period)
			}
		}
		var out bytes.Buffer
		if err := WriteSpecs(&out, specs); err != nil {
			t.Fatalf("accepted specs failed to serialize: %v", err)
		}
		back, err := ReadSpecs(&out)
		if err != nil {
			t.Fatalf("round trip rejected what ReadSpecs produced: %v", err)
		}
		if len(back) != len(specs) {
			t.Fatalf("round trip changed spec count: %d -> %d", len(specs), len(back))
		}
		for i := range back {
			if back[i].Name != specs[i].Name {
				t.Fatalf("round trip renamed spec %d: %q -> %q", i, specs[i].Name, back[i].Name)
			}
		}
	})
}

// TestReadSpecsRejectsHostileInputs pins the graceful-degradation
// contract on specific inputs fuzzing found interesting, so they stay
// covered in the ordinary (non-fuzz) test run.
func TestReadSpecsRejectsHostileInputs(t *testing.T) {
	cases := []struct {
		name, in, want string
	}{
		{"truncated", `[{"name":"A"`, "decode"},
		{"subnormal period", `[{"name":"A","period_s":1e-9}]`, "granularity"},
		{"huge period", `[{"name":"A","period_s":1e300}]`, "outside"},
		{"negative period", `[{"name":"A","period_s":-60}]`, "period"},
		{"zero period", `[{"name":"A","period_s":0}]`, "period"},
		{"negative duration", `[{"name":"A","period_s":60,"task_s":-1}]`, "task duration"},
		{"huge duration", `[{"name":"A","period_s":60,"task_s":1e300}]`, "outside"},
		{"bad alpha", `[{"name":"A","period_s":60,"alpha":2}]`, "alpha"},
		{"unknown hw", `[{"name":"A","period_s":60,"hw":["warp-drive"]}]`, "unknown component"},
		{"empty name", `[{"period_s":60}]`, "name"},
		{"unknown field", `[{"name":"A","period_s":60,"nonwakeup":true}]`, "nonwakeup"},
		{"trailing data", `[{"name":"A","period_s":60}] [{"name":"B","period_s":60}]`, "trailing data"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadSpecs(strings.NewReader(c.in))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want substring %q", err, c.want)
			}
		})
	}
}
