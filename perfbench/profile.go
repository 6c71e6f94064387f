package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the layers a CPU profile sample is charged to, in the
// order they are reported. "other" takes whatever maps to none of them.
var cpuLayers = []string{
	"simclock", "alarm", "core", "hw", "device", "power", "apps", "metrics",
	"sim", "fleet", "stats", "backend", "shardexec", "runstore", "httpapi",
	"nethttp", "gc_alloc", "other",
}

// gcAllocPrefixes name the runtime's allocation and garbage-collection
// functions. A sample whose stack reaches one of them before any layer
// frame is allocator or collector work.
var gcAllocPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice",
	"runtime.growslice", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
	"runtime.gcDrain", "runtime.gcStart", "runtime.gcMark",
	"runtime.gcWriteBarrier", "runtime.wbBufFlush", "runtime.bulkBarrier",
	"runtime.markroot", "runtime.scanobject", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.sweepone",
}

func isGCAlloc(fn string) bool {
	for _, p := range gcAllocPrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// funcPackage is the import path of a fully qualified Go function name,
// such as "repro/internal/sim" for "repro/internal/sim.(*runEnv).observe".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// packageLayer maps an import path to the benchmark layer it belongs
// to, or "" when it is not one of them (standard library helpers, the
// runtime, the benchmark itself).
func packageLayer(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		name, _, _ := strings.Cut(rest, "/")
		for _, l := range cpuLayers {
			if l == name {
				return l
			}
		}
		return ""
	}
	if pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "bufio" {
		return "nethttp"
	}
	return ""
}

// frameLayer charges one stack, leaf first, to a layer: the first frame
// that is an allocation/GC entry point or belongs to a layer decides.
// A standard-library leaf such as math.Exp is thereby charged to the
// layer that called it.
func frameLayer(stack []string) string {
	for _, fn := range stack {
		if isGCAlloc(fn) {
			return "gc_alloc"
		}
		if l := packageLayer(funcPackage(fn)); l != "" {
			return l
		}
	}
	return "other"
}

// profileShares decodes gzipped pprof CPU profiles and returns each
// layer's share of the sampled CPU time, in percent.
func profileShares(profiles [][]byte) (map[string]float64, int64, error) {
	cpu := make(map[string]int64)
	var total, samples int64
	for _, raw := range profiles {
		if len(raw) == 0 {
			continue // a worker that exited before its first sample
		}
		p, err := parseProfile(raw)
		if err != nil {
			return nil, 0, err
		}
		for _, s := range p.samples {
			stack := make([]string, 0, 16)
			for _, loc := range s.locs {
				stack = append(stack, p.locFuncs[loc]...)
			}
			cpu[frameLayer(stack)] += s.value
			total += s.value
			samples++
		}
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = 100 * float64(cpu[l]) / float64(total)
		}
	}
	return shares, samples, nil
}

// The rest of this file is a minimal decoder for the subset of the
// pprof protobuf (profile.proto) a CPU profile needs: samples with
// their location IDs and last value, locations with their inlined
// function lines, functions with their names, and the string table.

type pprofSample struct {
	locs  []uint64
	value int64
}

type pprofProfile struct {
	samples []pprofSample
	// locFuncs lists each location's function names, innermost inlined
	// frame first.
	locFuncs map[uint64][]string
}

func parseProfile(raw []byte) (*pprofProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		samples   []pprofSample
		locLines  = map[uint64][]uint64{} // location → function IDs
		funcNames = map[uint64]int64{}    // function → string index
		strs      []string
	)
	err = eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2:
			s, err := parseSample(b)
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case num == 4 && wire == 2:
			id, fns, err := parseLocation(b)
			if err != nil {
				return err
			}
			locLines[id] = fns
		case num == 5 && wire == 2:
			var id uint64
			var name int64
			if err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				switch {
				case n == 1 && w == 0:
					id = v
				case n == 2 && w == 0:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case num == 6 && wire == 2:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &pprofProfile{samples: samples, locFuncs: make(map[uint64][]string, len(locLines))}
	for id, fns := range locLines {
		names := make([]string, 0, len(fns))
		for _, fid := range fns {
			if idx := funcNames[fid]; idx >= 0 && int(idx) < len(strs) {
				names = append(names, strs[idx])
			}
		}
		p.locFuncs[id] = names
	}
	return p, nil
}

func parseSample(b []byte) (pprofSample, error) {
	var s pprofSample
	var values []int64
	err := eachField(b, func(num, wire int, v uint64, sub []byte) error {
		switch num {
		case 1:
			if wire == 0 {
				s.locs = append(s.locs, v)
				return nil
			}
			return eachPacked(sub, func(x uint64) { s.locs = append(s.locs, x) })
		case 2:
			if wire == 0 {
				values = append(values, int64(v))
				return nil
			}
			return eachPacked(sub, func(x uint64) { values = append(values, int64(x)) })
		}
		return nil
	})
	if len(values) > 0 {
		// A CPU profile's last value is the sampled CPU nanoseconds.
		s.value = values[len(values)-1]
	}
	return s, err
}

func parseLocation(b []byte) (id uint64, fns []uint64, err error) {
	err = eachField(b, func(num, wire int, v uint64, sub []byte) error {
		switch {
		case num == 1 && wire == 0:
			id = v
		case num == 4 && wire == 2:
			return eachField(sub, func(n, w int, v uint64, _ []byte) error {
				if n == 1 && w == 0 {
					fns = append(fns, v)
				}
				return nil
			})
		}
		return nil
	})
	return id, fns, err
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks a protobuf message, handing each field's number, wire
// type, and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

func eachPacked(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
