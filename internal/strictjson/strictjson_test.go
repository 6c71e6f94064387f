package strictjson

import (
	"errors"
	"strings"
	"testing"
)

func TestDecode(t *testing.T) {
	type doc struct {
		A int `json:"a"`
	}
	for _, tc := range []struct {
		in       string
		ok       bool
		trailing bool
	}{
		{`{"a":1}`, true, false},
		{" {\"a\":1}\n\t ", true, false},
		{`{"a":1,"b":2}`, false, false},
		{`{"a":1} garbage`, false, false},
		{`{"a":1}{"a":2}`, false, true},
		{`{"a":1} 7`, false, true},
		{`{"a":1`, false, false},
		{``, false, false},
	} {
		var d doc
		err := Decode(strings.NewReader(tc.in), &d)
		if (err == nil) != tc.ok {
			t.Errorf("Decode(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
		}
		if tc.trailing && !errors.Is(err, ErrTrailingData) {
			t.Errorf("Decode(%q) err = %v, want ErrTrailingData", tc.in, err)
		}
		if tc.ok && d.A != 1 {
			t.Errorf("Decode(%q) = %+v", tc.in, d)
		}
	}
}
