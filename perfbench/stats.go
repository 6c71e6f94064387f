package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile is the highest candidate percentile that leaves at
// least ten samples beyond it among n, so that the tail it reports
// rests on more than one or two outliers. It returns 0 when n is too
// small for even the median to have ten samples above it.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// quantile returns the nearest-rank p-th percentile of sorted xs.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// dist summarises one timing sample set.
type dist struct {
	n        int
	p50, p99 float64
	// tail is the highest percentile resolvable from n samples; p99 is
	// only trustworthy when tail ≥ 99.
	tail float64
}

func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{n: len(s), p50: quantile(s, 50), p99: quantile(s, 99), tail: tailPercentile(len(s))}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 50)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// openLoopTiming is the accounting of one open-loop request. The
// generator fixes due before the run; a request waits for a free client
// connection (freeAt) and is then sent (sentAt) and completes (doneAt).
type openLoopTiming struct {
	due, freeAt, sentAt, doneAt time.Duration
}

// latency is measured from the due time, so a stall that delays later
// requests is charged to them rather than hidden by a late send.
func (t openLoopTiming) latency() time.Duration { return t.doneAt - t.due }

// clientWait is how long the request waited for a client connection
// after it was due: queueing the system under test imposed.
func (t openLoopTiming) clientWait() time.Duration {
	if t.freeAt > t.due {
		return t.freeAt - t.due
	}
	return 0
}

// lag is how late the generator itself sent the request once both its
// due time and a free connection had arrived — timer and scheduling
// slack in the load generator, not queueing in the system.
func (t openLoopTiming) lag() time.Duration {
	ready := t.due
	if t.freeAt > ready {
		ready = t.freeAt
	}
	if t.sentAt < ready {
		return 0
	}
	return t.sentAt - ready
}
