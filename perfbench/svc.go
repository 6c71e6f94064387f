package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/httpapi"
	"repro/internal/runstore"
)

// clientConns bounds the load generator's connections, one per CPU.
const clientConns = 2

// svcServer is the service under test: httpapi over a runstore with two
// execution slots, on a loopback listener in this process.
type svcServer struct {
	store *runstore.Store
	srv   *http.Server
	base  string
	done  chan error
}

func startServer() (*svcServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	store := runstore.New(2)
	s := &svcServer{
		store: store,
		srv:   &http.Server{Handler: httpapi.New(store, httpapi.Options{}), ReadHeaderTimeout: 10 * time.Second},
		base:  "http://" + ln.Addr().String(),
		done:  make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close drains the store and stops the listener, waiting for Serve to
// return.
func (s *svcServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if derr := s.store.Drain(ctx); err == nil {
		err = derr
	}
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clientConns,
		MaxIdleConnsPerHost: clientConns,
		DisableCompression:  true,
	}}
}

// svcRequest is one open-loop request and everything measured about it.
type svcRequest struct {
	id     int
	fleet  bool
	body   []byte
	run    httpapi.RunSpec // single runs
	spec   fleet.Spec      // fleet requests
	timing openLoopTiming
	// acceptedAt is when the 202 arrived, relative to the phase origin.
	acceptedAt time.Duration
	runID      string
	// ok marks a request whose stream reached a done frame in state
	// done; err holds why another did not.
	ok  bool
	err string
	// nonpending marks a 202 whose body was already running or done.
	nonpending    bool
	frames, bytes int
	// summary is the final snapshot frame's Summary (fleet requests).
	summary json.RawMessage
	// created, started, finished are the store's timestamps.
	created, started, finished time.Time
}

// poissonDue returns n arrival offsets of a Poisson process over dur
// conditioned on exactly n arrivals: sorted uniform points. Fixing the
// count keeps every run's offered load identical while the spacing
// stays random.
func poissonDue(rng *rand.Rand, n int, dur time.Duration) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(dur))
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	return due
}

// buildPhase generates one schedule of single runs (light or heavy
// workload, NATIVE or SIMTY, 3 h, random seed) arriving as a Poisson
// process, plus a fixed share of fleetDevices-device fleet requests from
// the population (at least one), one at a uniform time in each of as
// many equal slots. Stratifying the fleet arrivals keeps their count and
// spacing alike from seed to seed, so the single-run tail they cause is
// comparable.
func buildPhase(rng *rand.Rand, rps float64, dur time.Duration, pop fleet.Spec, firstID int) []*svcRequest {
	n := int(math.Round(rps * dur.Seconds()))
	k := max(1, int(math.Round(fleetShare*float64(n))))
	reqs := make([]*svcRequest, 0, n)
	for _, due := range poissonDue(rng, n-k, dur) {
		r := &svcRequest{}
		r.timing.due = due
		r.run = httpapi.RunSpec{
			Workload: []string{"light", "heavy"}[rng.Intn(2)],
			Policy:   []string{"NATIVE", "SIMTY"}[rng.Intn(2)],
			Hours:    3,
			Seed:     1 + rng.Int63n(1<<30),
		}
		r.body = mustJSON(r.run)
		reqs = append(reqs, r)
	}
	slot := dur / time.Duration(k)
	for j := 0; j < k; j++ {
		r := &svcRequest{fleet: true}
		r.timing.due = time.Duration(j)*slot + time.Duration(rng.Float64()*float64(slot))
		r.spec = pop
		r.spec.Devices = fleetDevices
		r.spec.Seed = rng.Int63n(1 << 40)
		r.body = mustJSON(r.spec)
		reqs = append(reqs, r)
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].timing.due < reqs[j].timing.due })
	for i, r := range reqs {
		r.id = firstID + i
	}
	return reqs
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal request: %v", err)) // plain data
	}
	return b
}

// runOpenLoop sends reqs at their due times over clientConns
// connections. A connection takes the next request in due order as soon
// as it is free; a request due while both are busy waits, and that wait
// is part of its latency.
func runOpenLoop(ctx context.Context, client *http.Client, base string, reqs []*svcRequest) {
	origin := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) || ctx.Err() != nil {
					return
				}
				r := reqs[i]
				r.timing.freeAt = time.Since(origin)
				if wait := r.timing.due - r.timing.freeAt; wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
					}
				}
				r.timing.sentAt = time.Since(origin)
				if err := doRequest(ctx, client, base, r, origin); err != nil {
					r.err = err.Error()
					r.timing.doneAt = time.Since(origin)
				}
			}
		}()
	}
	wg.Wait()
}

// doRequest POSTs the request and follows its SSE stream to the done
// frame.
func doRequest(ctx context.Context, client *http.Client, base string, r *svcRequest, origin time.Time) error {
	kind := "runs"
	if r.fleet {
		kind = "fleets"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/"+kind, bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	var accepted runstore.Run
	derr := json.NewDecoder(resp.Body).Decode(&accepted)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	r.acceptedAt = time.Since(origin)
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST /%s: status %d", kind, resp.StatusCode)
	}
	if derr != nil {
		return fmt.Errorf("POST /%s: decode: %w", kind, derr)
	}
	r.runID = accepted.ID
	r.nonpending = accepted.State != runstore.StatePending

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/"+kind+"/"+r.runID+"/events", nil)
	if err != nil {
		return err
	}
	resp, err = client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET events: status %d", resp.StatusCode)
	}
	var done *runstore.Run
	err = readSSE(resp.Body, func(event string, data []byte) bool {
		r.frames++
		r.bytes += len(event) + len(data)
		switch event {
		case "snapshot":
			var snap struct {
				Summary json.RawMessage `json:"summary"`
			}
			if json.Unmarshal(data, &snap) == nil {
				r.summary = snap.Summary
			}
		case "done":
			r.timing.doneAt = time.Since(origin)
			done = &runstore.Run{}
			if jerr := json.Unmarshal(data, done); jerr != nil {
				done.Error = "undecodable done frame: " + jerr.Error()
			}
			return false
		}
		return true
	})
	switch {
	case err != nil:
		return err
	case done == nil:
		return errors.New("event stream ended without a done frame")
	case done.State != runstore.StateDone:
		return fmt.Errorf("run ended %q: %s", done.State, done.Error)
	}
	// Finish reading the closed stream so the connection is reused.
	io.Copy(io.Discard, resp.Body)
	r.ok = true
	return nil
}

// readSSE calls fn for each event frame until fn returns false or the
// stream ends. Comment lines (heartbeats) are skipped.
func readSSE(body io.Reader, fn func(event string, data []byte) bool) error {
	br := bufio.NewReaderSize(body, 64<<10)
	var event string
	var data []byte
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			text := strings.TrimRight(string(line), "\r\n")
			switch {
			case text == "":
				if event != "" || data != nil {
					if !fn(event, data) {
						return nil
					}
				}
				event, data = "", nil
			case strings.HasPrefix(text, ":"):
			case strings.HasPrefix(text, "event: "):
				event = text[len("event: "):]
			case strings.HasPrefix(text, "data: "):
				data = append(data, text[len("data: "):]...)
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// svcPhase is the service under the open-loop load, driven in chunks at
// the lo and hi rates. Each chunk gets a fresh server, so the run
// store's retained entries never outlive their chunk, and each chunk's
// requests are folded into the compact samples below and dropped: the
// benchmark's own heap must not grow over the pass, or it would slow
// the garbage collector under the fleet repetitions in this process.
type svcPhase struct {
	rng    *rand.Rand
	pop    fleet.Spec
	client *http.Client
	tr     *tracer
	nextID int

	// Due→done latencies in ms; a failed request counts as +Inf.
	loLat, hiLat, fleetLat []float64
	// loWall and hiWall sum each chunk's measured span, from its start
	// to its last completion.
	loWall, hiWall time.Duration
	// cpu sums this process's CPU time over each chunk's load, until its
	// last request completes: the server's work for the requests plus
	// the load generator's own (encoding requests, reading the event
	// streams).
	cpu time.Duration

	requests, failed, nonpending int
	// failures keeps the first few failure reasons for the report.
	failures []string

	// Per-layer samples in ms: POST→202, store queue (202→running),
	// store execution (running→finished), generator lag.
	accept, queue, exec, lag []float64
	// fleets counts completed fleet requests and the SSE frames and
	// bytes their streams carried.
	fleets, fleetFrames, fleetBytes int

	// problems lists output-check violations found against each chunk's
	// server after its load (outside the timed window).
	problems []string
}

// maxFailures bounds how many failure reasons are kept for the report.
const maxFailures = 3

func newSvcPhase(pop fleet.Spec, seed int64, tr *tracer) *svcPhase {
	return &svcPhase{rng: rand.New(rand.NewSource(seed)), pop: pop, client: newClient(), tr: tr}
}

// runChunk starts a server, sends one dur-long schedule at the phase's
// rate, waits for every request in it, checks one single run and one
// fleet request against direct runs, folds the requests into the
// phase's samples and shuts the server down.
func (p *svcPhase) runChunk(ctx context.Context, phase string, dur time.Duration) error {
	rps := loRPS
	if phase == "hi" {
		rps = hiRPS
	}
	reqs := buildPhase(p.rng, rps, dur, p.pop, p.nextID)
	p.nextID += len(reqs)
	srv, err := startServer()
	if err != nil {
		return err
	}
	// A stalled server must not hang the benchmark past its deadline.
	cctx, cancel := context.WithTimeout(ctx, dur+60*time.Second)
	defer cancel()
	origin := time.Now()
	cpu0 := cpuTime(false)
	runOpenLoop(cctx, p.client, srv.base, reqs)
	p.cpu += cpuTime(false) - cpu0
	for _, r := range reqs {
		if r.runID == "" {
			continue
		}
		if run, err := srv.store.Get(r.runID); err == nil {
			r.created, r.started, r.finished = run.Created, run.Started, run.Finished
		}
	}
	p.problems = append(p.problems, checkService(ctx, p.client, srv.base, reqs)...)
	p.client.CloseIdleConnections()
	if err := srv.close(); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	p.fold(phase, origin, reqs)
	return nil
}

// fold adds one chunk's requests to the phase's samples and, when
// tracing, records their spans.
func (p *svcPhase) fold(phase string, origin time.Time, reqs []*svcRequest) {
	var wall time.Duration
	for _, r := range reqs {
		t := r.timing
		wall = max(wall, t.doneAt)
		lat := math.Inf(1)
		if r.ok {
			lat = ms(t.latency())
		}
		switch {
		case r.fleet:
			p.fleetLat = append(p.fleetLat, lat)
		case phase == "hi":
			p.hiLat = append(p.hiLat, lat)
		default:
			p.loLat = append(p.loLat, lat)
		}
		p.requests++
		p.lag = append(p.lag, ms(t.lag()))
		if r.nonpending {
			p.nonpending++
		}
		if !r.ok {
			p.failed++
			if len(p.failures) < maxFailures {
				p.failures = append(p.failures, fmt.Sprintf("request %d: %s", r.id, r.err))
			}
			continue
		}
		p.accept = append(p.accept, ms(r.acceptedAt-t.sentAt))
		p.queue = append(p.queue, ms(r.started.Sub(r.created)))
		p.exec = append(p.exec, ms(r.finished.Sub(r.started)))
		if r.fleet {
			p.fleets++
			p.fleetFrames += r.frames
			p.fleetBytes += r.bytes
		}
		if p.tr != nil {
			at := func(d time.Duration) time.Time { return origin.Add(d) }
			key := int64(r.id)
			root := p.tr.add("svc.request", 0, key, at(t.due), at(t.doneAt))
			p.tr.add("svc.client_wait", root, key, at(t.due), at(t.due+t.clientWait()))
			p.tr.add("httpapi.accept", root, key, at(t.sentAt), at(r.acceptedAt))
			p.tr.add("runstore.queue", root, key, r.created, r.started)
			p.tr.add("httpapi.exec", root, key, r.started, r.finished)
			p.tr.add("httpapi.sse_tail", root, key, r.finished, at(t.doneAt))
		}
	}
	if phase == "hi" {
		p.hiWall += wall
	} else {
		p.loWall += wall
	}
}

// cpuPerRequest is the CPU milliseconds the chunks spent per request.
func (p *svcPhase) cpuPerRequest() float64 {
	return ms(p.cpu) / float64(max(p.requests, 1))
}

// goodput is how many hi-rate single runs per second finished within
// the latency limit.
func (p *svcPhase) goodput() float64 {
	good := 0
	for _, x := range p.hiLat {
		if x <= p99LimitMS {
			good++
		}
	}
	return float64(good) / p.hiWall.Seconds()
}
