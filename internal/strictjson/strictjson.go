// Package strictjson decodes the JSON documents the program accepts from
// outside — fleet and tournament specs, shard manifests, HTTP request
// bodies — under one rule: exactly one value, no unknown fields, and
// nothing but whitespace after it. A misspelled knob or a second
// concatenated document is an error, never a silently defaulted run.
package strictjson

import (
	"encoding/json"
	"errors"
	"io"
)

// ErrTrailingData marks input that continues past the first JSON value.
var ErrTrailingData = errors.New("trailing data after JSON value")

// Decode reads one JSON value from r into v, rejecting unknown object
// fields and any non-whitespace input after the value.
func Decode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err != nil {
			return err
		}
		return ErrTrailingData
	}
	return nil
}
