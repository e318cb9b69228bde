// Command coda-serve runs the deterministic control plane as an HTTP
// service: job submit/status/cancel, node lifecycle, placement queries,
// /metrics and /healthz. Every mutating request is fsync'd into a
// write-ahead log before it is acknowledged and applied in batch order by
// a single-threaded machine once per tick, so parallel clients yield one
// canonical event order. On startup the server recovers its exact
// pre-crash state from the latest checkpoint plus a WAL suffix replay.
//
// Usage:
//
//	coda-serve -addr :8080 -data /var/lib/coda
//	kill -9 <pid>; coda-serve -addr :8080 -data /var/lib/coda   # recovers
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"github.com/coda-repro/coda/internal/cluster"
	"github.com/coda-repro/coda/internal/core"
	"github.com/coda-repro/coda/internal/ctl"
	"github.com/coda-repro/coda/internal/ctl/wal"
	"github.com/coda-repro/coda/internal/sched"
	"github.com/coda-repro/coda/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// serveFlags is everything run parses out of the command line.
type serveFlags struct {
	addr            string
	dataDir         string
	tick            time.Duration
	nodes           int
	coresPerNode    int
	gpusPerNode     int
	scheduler       string
	seed            int64
	queueDepth      int
	checkpointEvery int
}

func parseFlags(args []string, stderr io.Writer) (*serveFlags, error) {
	fs := flag.NewFlagSet("coda-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	f := &serveFlags{}
	fs.StringVar(&f.addr, "addr", "127.0.0.1:8080", "listen address")
	fs.StringVar(&f.dataDir, "data", "coda-serve-data", "durable state directory (WAL + checkpoints)")
	fs.DurationVar(&f.tick, "tick", time.Second, "admission batch cadence; each tick advances virtual time by the same amount")
	fs.IntVar(&f.nodes, "nodes", 16, "cluster node count")
	fs.IntVar(&f.coresPerNode, "cores-per-node", 28, "CPU cores per node")
	fs.IntVar(&f.gpusPerNode, "gpus-per-node", 4, "GPUs per node")
	fs.StringVar(&f.scheduler, "sched", "coda", "scheduling policy: fifo, drf or coda")
	fs.Int64Var(&f.seed, "seed", 1, "engine measurement-noise seed")
	fs.IntVar(&f.queueDepth, "queue-depth", ctl.DefaultQueueDepth, "admission queue bound; a full queue sheds with 429")
	fs.IntVar(&f.checkpointEvery, "checkpoint-every", 64, "take a machine checkpoint every N applied requests (0 = WAL-only recovery)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if f.tick <= 0 {
		return nil, fmt.Errorf("-tick must be positive, got %v", f.tick)
	}
	if f.queueDepth < 1 {
		return nil, fmt.Errorf("-queue-depth must be at least 1, got %d", f.queueDepth)
	}
	if f.checkpointEvery < 0 {
		return nil, fmt.Errorf("-checkpoint-every must be non-negative, got %d", f.checkpointEvery)
	}
	return f, nil
}

// buildConfig assembles the machine config from flags: durable stores in
// the data directory and a scheduler factory for the chosen policy.
func buildConfig(f *serveFlags) (ctl.Config, *wal.FileLog, error) {
	opts := sim.DefaultOptions()
	opts.Cluster = cluster.DefaultConfig()
	opts.Cluster.Nodes = f.nodes
	opts.Cluster.CoresPerNode = f.coresPerNode
	opts.Cluster.GPUsPerNode = f.gpusPerNode
	opts.Seed = f.seed
	opts.Invariants = true
	if err := opts.Validate(); err != nil {
		return ctl.Config{}, nil, err
	}

	cc := opts.Cluster
	var factory func() (sched.Scheduler, error)
	switch f.scheduler {
	case "fifo":
		factory = func() (sched.Scheduler, error) { return sched.NewFIFO(), nil }
	case "drf":
		factory = func() (sched.Scheduler, error) {
			return sched.NewDRF(cc.TotalNodes()*cc.CoresPerNode, cc.TotalNodes()*cc.GPUsPerNode)
		}
	case "coda":
		factory = func() (sched.Scheduler, error) {
			return core.New(core.DefaultConfig(), cc.Nodes, cc.CoresPerNode, cc.GPUsPerNode)
		}
	default:
		return ctl.Config{}, nil, fmt.Errorf("unknown scheduler %q (want fifo, drf or coda)", f.scheduler)
	}

	if err := os.MkdirAll(f.dataDir, 0o755); err != nil {
		return ctl.Config{}, nil, err
	}
	log, err := wal.OpenFileLog(filepath.Join(f.dataDir, "requests.wal"))
	if err != nil {
		return ctl.Config{}, nil, err
	}
	store, err := wal.NewFileStore(filepath.Join(f.dataDir, "checkpoints"))
	if err != nil {
		_ = log.Close()
		return ctl.Config{}, nil, err
	}
	return ctl.Config{
		Options:         opts,
		NewScheduler:    factory,
		Log:             log,
		Store:           store,
		CheckpointEvery: f.checkpointEvery,
	}, log, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	f, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "coda-serve: %v\n", err)
		return 2
	}
	cfg, log, err := buildConfig(f)
	if err != nil {
		fmt.Fprintf(stderr, "coda-serve: %v\n", err)
		return 2
	}
	defer func() { _ = log.Close() }()

	m, recovered, err := ctl.Resume(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "coda-serve: recovery: %v\n", err)
		return 2
	}
	if recovered {
		c := m.Counters()
		fmt.Fprintf(stdout, "coda-serve: recovered %d applied requests (%d replayed from the WAL), virtual time %v\n",
			m.Applied(), c.ServeReplayed, m.Now())
	} else {
		fmt.Fprintf(stdout, "coda-serve: fresh start\n")
	}

	server := ctl.NewServer(m, ctl.ServerConfig{QueueDepth: f.queueDepth})
	ln, err := net.Listen("tcp", f.addr)
	if err != nil {
		fmt.Fprintf(stderr, "coda-serve: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "coda-serve: listening on %s (tick %v, data %s)\n", ln.Addr(), f.tick, f.dataDir)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	defer signal.Stop(stop)
	if code := serve(m, server, ln, f.tick, stop, stderr); code != 0 {
		return code
	}
	fmt.Fprintf(stdout, "coda-serve: shut down at virtual time %v after %d requests\n", m.Now(), m.Applied())
	return 0
}

// HTTP connection timeouts. ReadHeaderTimeout stops a client that never
// finishes its headers from holding a connection and its goroutine forever;
// IdleTimeout closes keep-alive connections left idle. There is no
// WriteTimeout: handlers legitimately block until the next tick applies
// their batch.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is the one HTTP server coda-serve listens with.
func newHTTPServer(handler http.Handler) *http.Server {
	return &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// serve runs the HTTP server on ln until a value on stop, a poisoned tick
// or a failure of the HTTP server itself, and returns the exit code: 0 for
// a shutdown on stop, 1 otherwise.
//
// The ticker goroutine is the machine's only writer: it drains the
// admission queue as one WAL batch per tick and advances virtual time in
// lockstep with the wall clock. It owns shutdown: on stop, a poisoned
// engine, or Serve returning on an error of its own, it stops the control
// plane and closes the HTTP server, which returns Serve.
func serve(m *ctl.Machine, server *ctl.Server, ln net.Listener, tick time.Duration, stop <-chan os.Signal, stderr io.Writer) int {
	httpSrv := newHTTPServer(server)
	var tickErr error
	serveFailed := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(tick)
		defer ticker.Stop()
		at := m.Now()
		for {
			select {
			case <-ticker.C:
				at += tick
				if tickErr = server.Tick(at); tickErr == nil {
					continue
				}
			case <-stop:
			case <-serveFailed:
			}
			server.Stop()
			httpSrv.Close()
			return
		}
	}()

	serveErr := httpSrv.Serve(ln)
	if errors.Is(serveErr, http.ErrServerClosed) {
		serveErr = nil // the ticker shut the server down
	} else {
		close(serveFailed)
	}
	<-done
	switch {
	case tickErr != nil:
		fmt.Fprintf(stderr, "coda-serve: tick: %v\n", tickErr)
		return 1
	case serveErr != nil:
		fmt.Fprintf(stderr, "coda-serve: serve: %v\n", serveErr)
		return 1
	}
	return 0
}
