// Command wakesimd serves the simulator over HTTP: submit single-device
// runs and whole-fleet specs, poll or stream their progress, and fetch
// the deterministic aggregates — the service form of cmd/wakesim.
//
// Usage:
//
//	wakesimd [-addr :8080] [-maxruns 2] [-workers 0] [-procs 0]
//	         [-snapshot 64] [-maxbody 1048576] [-drain 30s]
//	wakesimd -shardworker
//
// The API (see internal/httpapi):
//
//	POST   /runs               submit one device run
//	POST   /fleets             submit a fleet spec
//	GET    /runs/{id}          poll state, progress, result
//	GET    /fleets/{id}/events SSE: live progress + aggregate snapshots
//	DELETE /fleets/{id}        cancel
//	GET    /healthz            liveness
//	GET    /readyz             readiness (503 while draining)
//
// -procs P executes every fleet through the multi-process shard
// supervisor (internal/shardexec): P worker processes per fleet,
// crash/hang retries with quarantine, "shard" lifecycle events on the
// SSE stream, and a byte-identical aggregate. The workers are this
// same binary re-executed in -shardworker mode — an internal mode that
// reads one shard manifest from stdin, writes one framed shard to
// stdout, and takes no other flags.
//
// At most -maxruns simulations execute at once; excess submissions
// queue. On SIGTERM/SIGINT the daemon stops accepting work, waits up to
// -drain for in-flight runs to finish (cancelling stragglers at the
// deadline), then closes the listener — a supervisor restart never
// tears down a half-aggregated fleet silently. During that drain
// window /readyz answers 503 while /healthz stays 200, so a load
// balancer stops routing new work without the supervisor declaring the
// daemon dead mid-drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/httpapi"
	"repro/internal/runstore"
	"repro/internal/shardexec"
)

// options holds every flag value. Keeping them on a struct (rather than
// package-level pointers) lets the tests parse, validate, and run
// arbitrary configurations without touching global state.
type options struct {
	addr        string
	maxRuns     int
	workers     int
	procs       int
	snapshot    int
	maxBody     int64
	drain       time.Duration
	shardworker bool

	// onListen, when set (by tests), receives the bound address once the
	// listener is up.
	onListen func(net.Addr)
}

// registerFlags binds the options to a FlagSet with their defaults.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.maxRuns, "maxruns", runstore.DefaultMaxConcurrent, "maximum simulations executing at once (further submissions queue)")
	fs.IntVar(&o.workers, "workers", 0, "per-simulation worker pool size (0 = GOMAXPROCS)")
	fs.IntVar(&o.snapshot, "snapshot", fleet.DefaultSnapshotEvery, "devices folded between SSE aggregate snapshots")
	fs.Int64Var(&o.maxBody, "maxbody", 1<<20, "maximum request body size in bytes")
	fs.DurationVar(&o.drain, "drain", 30*time.Second, "shutdown grace: how long to let in-flight runs finish")
	fs.IntVar(&o.procs, "procs", 0, "execute fleets across N supervised worker processes (0 = in-process)")
	fs.BoolVar(&o.shardworker, "shardworker", false, "internal: run as a shard worker (manifest on stdin, framed shard on stdout)")
	return o
}

// validate checks every flag value before the listener opens; a bad
// combination exits non-zero with a one-line error.
func (o *options) validate() error {
	if o.addr == "" {
		return fmt.Errorf("-addr: want a non-empty listen address")
	}
	if o.maxRuns < 1 {
		return fmt.Errorf("-maxruns %d: want at least one execution slot", o.maxRuns)
	}
	if o.workers < 0 {
		return fmt.Errorf("-workers %d: want a non-negative worker count", o.workers)
	}
	if o.procs < 0 {
		return fmt.Errorf("-procs %d: want a non-negative process count", o.procs)
	}
	if o.snapshot < 1 {
		return fmt.Errorf("-snapshot %d: want a positive fold interval", o.snapshot)
	}
	if o.maxBody < 1 {
		return fmt.Errorf("-maxbody %d: want a positive byte limit", o.maxBody)
	}
	if o.drain <= 0 {
		return fmt.Errorf("-drain %v: want a positive shutdown grace period", o.drain)
	}
	return nil
}

func main() {
	opts := registerFlags(flag.CommandLine)
	flag.Parse()
	if opts.shardworker {
		if flag.NFlag() > 1 {
			fail(fmt.Errorf("-shardworker is an internal mode and takes no other flags"))
		}
		os.Exit(shardexec.WorkerMain(context.Background(), os.Stdin, os.Stdout, os.Stderr))
	}
	if err := opts.validate(); err != nil {
		fail(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := opts.run(ctx, os.Stdout); err != nil {
		fail(err)
	}
}

// fail prints the one-line error contract: no stack, no usage dump,
// non-zero exit.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "wakesimd: %v\n", err)
	os.Exit(1)
}

// run serves until ctx is cancelled (the signal handler's job), then
// shuts down gracefully: drain the store first — in-flight simulations
// finish or are cancelled at the -drain deadline, and their SSE streams
// end with the terminal frames — then close the listener.
func (o *options) run(ctx context.Context, w io.Writer) error {
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	store := runstore.New(o.maxRuns)
	srv := &http.Server{Handler: httpapi.New(store, httpapi.Options{
		Exec:    shardexec.Options{Workers: o.workers, Procs: o.procs, SnapshotEvery: o.snapshot},
		MaxBody: o.maxBody,
	})}

	fmt.Fprintf(w, "wakesimd: listening on %s (%d execution slots, drain %v)\n", ln.Addr(), o.maxRuns, o.drain)
	if o.onListen != nil {
		o.onListen(ln.Addr())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		// The listener died under us; abandon in-flight work loudly.
		store.CancelAll()
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	fmt.Fprintf(w, "wakesimd: shutting down, draining in-flight runs (up to %v)\n", o.drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	if err := store.Drain(drainCtx); err != nil {
		fmt.Fprintf(w, "wakesimd: drain deadline passed, in-flight runs cancelled (%v)\n", err)
	}

	// Every run is terminal now, so open SSE streams have delivered
	// their final frames and returned; the short deadline only guards
	// against clients that never read.
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
	}
	fmt.Fprintln(w, "wakesimd: stopped")
	return nil
}
