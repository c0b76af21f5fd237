// Command helperd operates the distributed simulation grid: one process
// per role, composable into a cluster.
//
//	helperd serve  -addr :8321                 # the job server
//	helperd work   -server :8321 -workers 4    # a simulation worker (run N of these)
//	helperd submit -server :8321 -jobs jobs.json   # stream a batch through the grid
//	helperd metrics -server :8321              # counter snapshot (cache hits, leases, ...)
//	helperd federate -servers a:8321,b:8322    # load snapshot of every federation member
//
// The server shards submitted batches into a priority work queue, leases
// jobs to polling workers (a worker that stops heartbeating loses its
// leases and the jobs are reassigned), streams results back as NDJSON,
// and serves repeated jobs from a content-addressed result store keyed
// by the canonical Job hash — a sweep rerun costs nothing but the cache
// lookups. `sweep -grid` drives the same fabric for the paper studies.
//
// Several servers federate into one tier: each `serve -self URL -peers
// a,b` member gossips membership, advertises stealable queue depth and
// its worst batch ETA, and steals from the member that would otherwise
// finish last. `-store-shard N` turns the members' local stores into
// one sharded cache — every result rendezvous-hashes to N owners, so
// any member answers a rerun from cache and one member's death loses
// nothing. A shared `-peer-secret` authenticates all of that peer
// traffic (HMAC per request); members without the secret are rejected.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/grid"
	"repro/internal/profiling"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var err error
	switch os.Args[1] {
	case "serve":
		err = serveCmd(ctx, os.Args[2:])
	case "work":
		err = workCmd(ctx, os.Args[2:])
	case "submit":
		err = submitCmd(ctx, os.Args[2:])
	case "metrics":
		err = metricsCmd(ctx, os.Args[2:])
	case "trace":
		err = traceCmd(ctx, os.Args[2:])
	case "top":
		err = topCmd(ctx, os.Args[2:])
	case "federate":
		err = federateCmd(ctx, os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "helperd: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "helperd:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: helperd <serve|work|submit|metrics|trace|top|federate> [flags]

  serve    -addr :8321 [-lease 5s] [-max-attempts 5] [-store-dir dir] [-store-max-bytes 0]
           [-self URL] [-peers a:8321,b:8321] [-peer-secret s] [-store-shard 2]
           [-tenants spec] [-default-tenant spec] [-max-queue 0]
           [-min-workers 0] [-max-workers 0] [-worker-parallel 0] [-scale-tick 500ms]
           [-log off|error|warn|info|debug] [-trace 4096] [-trace-spill file]
           [-debug-addr ""]
  work     -server :8321 [-workers 0] [-name ""] [-health ""] [-debug-addr ""]
  submit   -server :8321 [-jobs file|-] [-priority 0] [-warmup-frac 0.2] [-progress] [-client ""]
  metrics  -server :8321
  trace    -server :8321 [-check exec|cached|stolen] [-limit 20] [id]
  top      -server :8321 [-interval 1s] [-once]
  federate -servers a:8321,b:8321 [-peer-secret s]

A -tenants spec registers per-client limits, ';'-separated:
  alice,weight=4,rate=50,burst=100;bob,weight=1,jobs=500,bytes=33554432
-default-tenant takes the same key=value list (no leading id) for
clients the spec does not name. -min/max-workers enable the autoscaler:
the server spawns and drains re-exec'd local workers with the queue.

trace with no id lists recent traces; with a trace/task/batch id it
reconstructs the span tree, following steal hops across federation
peers. -debug-addr serves net/http/pprof on its own listener (off by
default). The server also serves a live dashboard on /dashboard.
`)
}

// serveCmd runs the grid job server until interrupted. With -peers or
// -self it becomes a federation member: the Server is wrapped in a
// grid.Federation that gossips membership and steals work for the local
// worker pool, and -store-shard spreads the members' result stores into
// one replicated cache tier.
func serveCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("helperd serve", flag.ExitOnError)
	addr := fs.String("addr", ":8321", "listen address")
	lease := fs.Duration("lease", 5*time.Second, "lease TTL (heartbeat deadline before reassignment)")
	maxAttempts := fs.Int("max-attempts", 5, "lease attempts per job before it is failed")
	storeDir := fs.String("store-dir", "", "directory for the on-disk result store (empty = in-memory; a restart on the same dir keeps the cache)")
	storeMax := fs.Int64("store-max-bytes", 0, "byte cap for -store-dir, LRU-evicted (0 = unbounded)")
	storeShard := fs.Int("store-shard", 0, "replication factor for the sharded federation store (0 = off; rendezvous-hashes results over live members, requires -self/-peers)")
	self := fs.String("self", "", "advertised base URL for federation (default: derived from -addr; set it when peers reach this member on another address)")
	peers := fs.String("peers", "", "comma-separated peer servers; federates this member with them")
	peerSecret := fs.String("peer-secret", "", "shared secret authenticating the peer seam (HMAC on announce/status/steal/store; empty = open)")
	tenants := fs.String("tenants", "", "per-tenant limits spec: id,key=value,...;id,... (keys: weight rate burst jobs bytes)")
	defaultTenant := fs.String("default-tenant", "", "limits for tenants the -tenants spec does not name (key=value,... without an id)")
	maxQueue := fs.Int("max-queue", 0, "server-wide queue bound; batches past it get 503 + Retry-After (0 = unbounded)")
	minWorkers := fs.Int("min-workers", 0, "autoscaler floor: local workers kept alive (0 with -max-workers 0 disables autoscaling)")
	maxWorkers := fs.Int("max-workers", 0, "autoscaler ceiling: most local workers spawned under load")
	workerPar := fs.Int("worker-parallel", 0, "parallel simulations per spawned worker (0 = GOMAXPROCS)")
	scaleTick := fs.Duration("scale-tick", 500*time.Millisecond, "autoscaler evaluation period")
	logLevel := fs.String("log", "", "structured log level: off (default), error, warn, info, debug")
	traceCap := fs.Int("trace", 0, "trace ring capacity in events (0 = default 4096, negative = disable tracing)")
	traceSpill := fs.String("trace-spill", "", "append every trace event to this NDJSON file (operators point it next to -store-dir)")
	debugAddr := fs.String("debug-addr", "", "optional listen address for net/http/pprof (off by default)")
	fs.Parse(args)

	if *storeShard > 0 && *peers == "" && *self == "" {
		return fmt.Errorf("-store-shard needs a federation (-peers and/or -self)")
	}
	logger, err := buildLogger(*logLevel)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *debugAddr != "" {
		bound, stopDebug, err := profiling.ServeDebug(*debugAddr)
		if err != nil {
			return err
		}
		defer stopDebug()
		fmt.Fprintf(os.Stderr, "helperd: pprof on http://%s/debug/pprof/\n", bound)
	}
	opts := []grid.ServerOption{grid.WithLeaseTTL(*lease), grid.WithMaxAttempts(*maxAttempts),
		grid.WithTrace(*traceCap)}
	if *traceSpill != "" {
		f, err := os.OpenFile(*traceSpill, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening -trace-spill: %w", err)
		}
		defer f.Close()
		opts = append(opts, grid.WithTraceSpill(f))
		fmt.Fprintf(os.Stderr, "helperd: trace spill %s\n", *traceSpill)
	}
	if logger != nil {
		opts = append(opts, grid.WithLogger(logger))
	}
	if *maxQueue > 0 {
		opts = append(opts, grid.WithMaxQueue(*maxQueue))
	}
	if *tenants != "" {
		limits, err := grid.ParseTenantSpec(*tenants)
		if err != nil {
			return err
		}
		for id, l := range limits {
			opts = append(opts, grid.WithTenant(id, l))
		}
		fmt.Fprintf(os.Stderr, "helperd: %d tenant limit(s) registered\n", len(limits))
	}
	if *defaultTenant != "" {
		// The shared parser wants a leading tenant id; give the
		// defaults spec a synthetic one.
		limits, err := grid.ParseTenantSpec("_default," + *defaultTenant)
		if err != nil {
			return err
		}
		opts = append(opts, grid.WithTenantDefaults(limits["_default"]))
	}
	adv := *self
	if adv == "" {
		adv = advertiseURL(ln.Addr())
	}
	var local grid.Storage
	if *storeDir != "" {
		st, err := grid.OpenDiskStore(*storeDir, grid.WithMaxBytes(*storeMax))
		if err != nil {
			return err
		}
		defer st.Close()
		entries, _, _ := st.Stats()
		fmt.Fprintf(os.Stderr, "helperd: disk store %s: %d results recovered\n", *storeDir, entries)
		local = st
	}
	var shard *grid.ShardedStore
	if *storeShard > 0 {
		if local == nil {
			local = grid.NewStore()
		}
		shard = grid.NewShardedStore(local, adv,
			grid.WithShardReplication(*storeShard), grid.WithShardSecret(*peerSecret))
		defer shard.Close()
		fmt.Fprintf(os.Stderr, "helperd: sharded store, replication %d\n", *storeShard)
		local = shard
	}
	if local != nil {
		opts = append(opts, grid.WithStorage(local))
	}
	if *peerSecret != "" {
		opts = append(opts, grid.WithPeerSecret(*peerSecret))
	}
	srv := grid.NewServer(opts...)
	defer srv.Close()

	// The Federation wraps the Server's handler; its Close is deferred
	// after srv's, so it runs first — and the http.Server's Close (below)
	// has already cut any loopback batch streams it would wait on.
	var handler http.Handler = srv
	if *peers != "" || *self != "" {
		fed := grid.NewFederation(srv, adv, splitList(*peers))
		defer fed.Close()
		if shard != nil {
			shard.SetMembership(fed.Peers)
		}
		handler = fed
		fmt.Fprintf(os.Stderr, "helperd: federation member %s, seed peers %v\n", fed.Self(), fed.Peers())
	}
	if *minWorkers > 0 || *maxWorkers > 0 {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		serverURL := advertiseURL(ln.Addr())
		as, err := grid.NewAutoscaler(srv, grid.AutoscalerConfig{
			Min:  *minWorkers,
			Max:  *maxWorkers,
			Tick: *scaleTick,
			Log:  logger,
			Spawn: func(id int) (grid.WorkerHandle, error) {
				return spawnWorker(exe, serverURL, id, *workerPar)
			},
		})
		if err != nil {
			return err
		}
		defer as.Close()
		fmt.Fprintf(os.Stderr, "helperd: autoscaling %d..%d local workers (tick %s)\n",
			*minWorkers, max(*minWorkers, *maxWorkers), *scaleTick)
	}
	hs := &http.Server{Handler: handler}
	fmt.Fprintf(os.Stderr, "helperd: serving grid on %s\n", ln.Addr())
	go func() {
		<-ctx.Done()
		hs.Close()
	}()
	if err := hs.Serve(ln); err != http.ErrServerClosed {
		return err
	}
	return nil
}

// buildLogger maps the -log flag onto a stderr slog.Logger, nil for
// off.
func buildLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "", "off":
		return nil, nil
	case "error":
		lv = slog.LevelError
	case "warn":
		lv = slog.LevelWarn
	case "info":
		lv = slog.LevelInfo
	case "debug":
		lv = slog.LevelDebug
	default:
		return nil, fmt.Errorf("unknown -log level %q (want off|error|warn|info|debug)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

// procHandle adapts a re-exec'd `helperd work` process to the
// autoscaler's WorkerHandle: Drain is SIGTERM (the worker finishes its
// in-flight leases and exits), Kill is SIGKILL.
type procHandle struct {
	cmd  *exec.Cmd
	done chan struct{}
}

func (p *procHandle) Drain() { p.cmd.Process.Signal(syscall.SIGTERM) }
func (p *procHandle) Kill()  { p.cmd.Process.Kill() }

func (p *procHandle) Done() <-chan struct{} { return p.done }

// spawnWorker launches one supervised `helperd work` process against
// the server, named auto<N> so operators can tell autoscaled workers
// from hand-started ones in /metrics.
func spawnWorker(exe, serverURL string, id, parallel int) (grid.WorkerHandle, error) {
	args := []string{"work", "-server", serverURL, "-name", fmt.Sprintf("auto%d", id)}
	if parallel > 0 {
		args = append(args, "-workers", fmt.Sprint(parallel))
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		cmd.Wait()
		close(done)
	}()
	return &procHandle{cmd: cmd, done: done}, nil
}

// advertiseURL derives the federation base URL from the listen address:
// an explicit host is advertised as-is; a wildcard listen falls back to
// loopback (fine for single-host federations — use -self otherwise).
func advertiseURL(a net.Addr) string {
	host := "127.0.0.1"
	port := ""
	if ta, ok := a.(*net.TCPAddr); ok {
		port = fmt.Sprint(ta.Port)
		if len(ta.IP) > 0 && !ta.IP.IsUnspecified() {
			host = ta.IP.String()
		}
	}
	return "http://" + net.JoinHostPort(host, port)
}

// splitList parses a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// workCmd runs one worker process against a grid server.
func workCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("helperd work", flag.ExitOnError)
	server := fs.String("server", ":8321", "job server address")
	workers := fs.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS); also the reported capacity")
	name := fs.String("name", "", "worker name (default host-pid)")
	health := fs.String("health", "", "optional listen address for a /healthz load endpoint")
	debugAddr := fs.String("debug-addr", "", "optional listen address for net/http/pprof (off by default)")
	fs.Parse(args)

	if *debugAddr != "" {
		bound, stopDebug, err := profiling.ServeDebug(*debugAddr)
		if err != nil {
			return err
		}
		defer stopDebug()
		fmt.Fprintf(os.Stderr, "helperd: pprof on http://%s/debug/pprof/\n", bound)
	}

	// The exec runner applies no warmup fraction of its own: wire jobs
	// arrive fully resolved and must run with exactly the warmup they
	// carry, or remote results would drift from local ones. The
	// progress-capable exec reports interval snapshots (uops, IPC, rung,
	// phase) that the worker relays over heartbeats; results stay
	// bit-identical to the plain exec.
	w := &grid.Worker{
		Server:       *server,
		Name:         *name,
		Parallel:     *workers,
		ExecProgress: repro.NewRunner().JobExecProgress(0),
	}
	// SIGTERM is the graceful-drain signal (the autoscaler's reap path):
	// stop leasing, finish in-flight simulations, post the completions,
	// exit 0. Interrupt (via ctx) stays the hard stop.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		select {
		case <-sigs:
			fmt.Fprintln(os.Stderr, "helperd: worker draining (SIGTERM)")
			w.Drain()
		case <-ctx.Done():
		}
	}()
	if *health != "" {
		ln, err := net.Listen("tcp", *health)
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: w.Healthz()}
		go hs.Serve(ln)
		defer hs.Close()
		fmt.Fprintf(os.Stderr, "helperd: worker health on http://%s/healthz\n", ln.Addr())
	}
	fmt.Fprintf(os.Stderr, "helperd: worker pulling from %s\n", grid.BaseURL(*server))
	if err := w.Run(ctx); err != nil && err != context.Canceled {
		return err
	}
	return nil
}

// submitCmd streams a job batch through the grid, printing one NDJSON
// line per result, and exits non-zero if any job failed (the failed
// job's canonical JSON goes to stderr).
func submitCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("helperd submit", flag.ExitOnError)
	server := fs.String("server", ":8321", "job server address")
	jobsPath := fs.String("jobs", "-", "jobs file: a JSON array of jobs or NDJSON, \"-\" for stdin")
	priority := fs.Int("priority", 0, "queue priority (higher runs first)")
	warmupFrac := fs.Float64("warmup-frac", 0.2, "default warmup fraction for jobs without an explicit warmup")
	progress := fs.Bool("progress", false, "stream interval progress lines (uops, IPC, rung, phase) to stderr as jobs run")
	client := fs.String("client", "", "tenant identity (X-Grid-Client) this batch submits as")
	fs.Parse(args)

	jobs, err := readJobs(*jobsPath)
	if err != nil {
		return err
	}
	if len(jobs) == 0 {
		return fmt.Errorf("no jobs in %s", *jobsPath)
	}
	ropts := []repro.Option{
		repro.WithGrid(*server),
		repro.WithGridPriority(*priority),
		repro.WithWarmupFrac(*warmupFrac),
	}
	if *client != "" {
		ropts = append(ropts, repro.WithGridClientID(*client))
	}
	if *progress {
		ropts = append(ropts, repro.WithGridProgress(func(p repro.JobProgress) {
			pct := 0.0
			if p.Total > 0 {
				pct = 100 * float64(p.Uops) / float64(p.Total)
			}
			fmt.Fprintf(os.Stderr, "helperd: progress job=%d %s %5.1f%% ipc=%.3f rung=%s phase=%d worker=%s\n",
				p.Index, p.Job.Label(), pct, p.IntervalIPC, p.Rung, p.Phase, p.Worker)
		}))
	}
	runner := repro.NewRunner(ropts...)

	type line struct {
		Index  int           `json:"index"`
		Job    string        `json:"job"`
		Result *repro.Result `json:"result,omitempty"`
		Err    string        `json:"error,omitempty"`
	}
	enc := json.NewEncoder(os.Stdout)
	failures := 0
	for jr := range runner.RunBatch(ctx, jobs) {
		l := line{Index: jr.Index, Job: jr.Job.Label()}
		if jr.Err != nil {
			l.Err = jr.Err.Error()
			failures++
			if data, merr := json.Marshal(jr.Job); merr == nil {
				fmt.Fprintf(os.Stderr, "helperd: failed job (canonical JSON): %s\n", data)
			}
		} else {
			res := jr.Result
			l.Result = &res
		}
		enc.Encode(l)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d jobs failed", failures, len(jobs))
	}
	return nil
}

// metricsCmd prints the server's counter snapshot as JSON, with a
// one-line federation digest (steals, affinity) on stderr
// when the member has federated.
func metricsCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("helperd metrics", flag.ExitOnError)
	server := fs.String("server", ":8321", "job server address")
	fs.Parse(args)
	client := &grid.Client{Server: *server}
	m, err := client.Metrics(ctx)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return err
	}
	if m.Peers > 0 || m.StealsOut > 0 || m.StealsIn > 0 {
		fmt.Fprintf(os.Stderr, "helperd: federation: %d peers, %d steals out, %d in, affinity %d/%d\n",
			m.Peers, m.StealsOut, m.StealsIn, m.AffinityHits, m.AffinityHits+m.AffinityMisses)
	}
	for _, t := range m.Tenants {
		fmt.Fprintf(os.Stderr, "helperd: tenant %-12s weight=%g admitted=%d rejected=%d(rate)+%d(quota) queued=%d running=%d completed=%d failed=%d pending_bytes=%d\n",
			t.ID, t.Weight, t.Admitted, t.RejectedRate, t.RejectedQuota,
			t.Queued, t.Running, t.Completed, t.Failed, t.PendingBytes)
	}
	if lw := m.LeaseWaits; lw != nil {
		fmt.Fprintf(os.Stderr, "helperd: lease waits: %d grants, mean %.1fms, max %.1fms\n",
			lw.Count, lw.MeanMS, lw.MaxMS)
	}
	if a := m.Autoscaler; a != nil {
		fmt.Fprintf(os.Stderr, "helperd: autoscaler: %d workers (target %d), %d ups, %d downs\n",
			a.Workers, a.Target, a.ScaleUps, a.ScaleDowns)
	}
	return nil
}

// traceCmd reconstructs the span tree of one traced job and prints it
// with per-event offsets and a span-duration digest, following steal
// hops to the federation peers named by stolen events. Without an id it
// lists the server's most recently touched traces. -check validates the
// merged tree as a local execution, a cache hit, or a stolen run, and
// fails the command when the tree does not match.
func traceCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("helperd trace", flag.ExitOnError)
	server := fs.String("server", ":8321", "job server address")
	check := fs.String("check", "", "validate the span tree as exec|cached|stolen (non-zero exit on mismatch)")
	limit := fs.Int("limit", 20, "most recent traces listed when no id is given")
	fs.Parse(args)
	client := &grid.Client{Server: *server}

	id := fs.Arg(0)
	if id == "" {
		traces, err := client.TraceList(ctx, *limit)
		if err != nil {
			return err
		}
		if len(traces) == 0 {
			fmt.Println("helperd: no traces recorded")
			return nil
		}
		for _, t := range traces {
			span := time.Duration(t.LastNS - t.FirstNS)
			fmt.Printf("%-71s %3d events %12s  %s\n",
				t.Trace, t.Events, span.Round(time.Microsecond), strings.Join(t.Stages, ","))
		}
		return nil
	}

	events, sources, err := collectTrace(ctx, grid.BaseURL(*server), id)
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("no trace events for %q (tracing disabled, or the ring has rotated past it)", id)
	}
	fmt.Printf("trace %s — %d event(s) from %d server(s)\n", events[0].Trace, len(events), sources)
	base := events[0].TimeNS
	for _, ev := range events {
		off := float64(ev.TimeNS-base) / 1e6
		fmt.Printf("  %+12.3fms  %-10s %s\n", off, ev.Stage, traceFields(ev))
	}
	d := grid.Durations(events)
	fmt.Printf("spans: admission=%s queue=%s first_progress=%s exec=%s e2e=%s\n",
		fmtSpan(d.Admission), fmtSpan(d.Queue), fmtSpan(d.FirstProgress),
		fmtSpan(d.Exec), fmtSpan(d.EndToEnd))
	if *check != "" {
		if err := grid.ValidateTrace(events, *check); err != nil {
			return err
		}
		fmt.Printf("helperd: trace validates as %s\n", *check)
	}
	return nil
}

// collectTrace merges the trace's events across the federation: fetch
// from origin, stamp each event's Source, then follow every peer a
// stolen event names (the victim from a steal-in, the thief from a
// steal-out) and fetch the same trace ID there — the content hash is
// identical on both sides of a hop, so it is the cross-server join key.
// It reports the merged, time-ordered events and how many servers
// contributed.
func collectTrace(ctx context.Context, origin, id string) ([]grid.TraceEvent, int, error) {
	evs, err := (&grid.Client{Server: origin}).TraceEvents(ctx, id)
	if err != nil {
		return nil, 0, err
	}
	hashes := map[string]bool{}
	for i := range evs {
		evs[i].Source = origin
		if evs[i].Trace != "" {
			hashes[evs[i].Trace] = true
		}
	}
	merged := evs
	visited := map[string]bool{origin: true}
	queue := stealPeers(evs)
	sources := 1
	for len(queue) > 0 {
		peer := queue[0]
		queue = queue[1:]
		if peer == "" || visited[peer] {
			continue
		}
		visited[peer] = true
		c := &grid.Client{Server: peer}
		contributed := false
		for h := range hashes {
			pevs, err := c.TraceEvents(ctx, h)
			if err != nil {
				fmt.Fprintf(os.Stderr, "helperd: peer %s unreachable, tree may be partial: %v\n", peer, err)
				break
			}
			for i := range pevs {
				pevs[i].Source = peer
			}
			if len(pevs) > 0 {
				contributed = true
			}
			merged = append(merged, pevs...)
			queue = append(queue, stealPeers(pevs)...)
		}
		if contributed {
			sources++
		}
	}
	grid.SortEvents(merged)
	return merged, sources, nil
}

// stealPeers extracts the peer URLs named by a event set's steal hops.
func stealPeers(evs []grid.TraceEvent) []string {
	var out []string
	for _, ev := range evs {
		if ev.Stage == grid.StageStolen && ev.Peer != "" {
			out = append(out, grid.BaseURL(ev.Peer))
		}
	}
	return out
}

// traceFields renders one event's identifying fields for the span tree.
func traceFields(ev grid.TraceEvent) string {
	var parts []string
	add := func(k, v string) {
		if v != "" {
			parts = append(parts, k+"="+v)
		}
	}
	add("task", ev.Task)
	add("batch", ev.Batch)
	add("tenant", ev.Tenant)
	add("worker", ev.Worker)
	if ev.Attempt > 0 {
		add("attempt", fmt.Sprint(ev.Attempt))
	}
	add("peer", ev.Peer)
	if ev.Hop > 0 {
		add("hop", fmt.Sprint(ev.Hop))
	}
	if ev.Total > 0 {
		add("uops", fmt.Sprintf("%d/%d", ev.Uops, ev.Total))
	}
	add("detail", ev.Detail)
	add("@", ev.Source)
	return strings.Join(parts, " ")
}

// fmtSpan renders one reconstructed span, "-" for unobserved endpoints.
func fmtSpan(d time.Duration) string {
	if d < 0 {
		return "-"
	}
	return fmt.Sprintf("%.3fms", float64(d)/1e6)
}

// topCmd renders a live text dashboard of one server — the terminal
// sibling of /dashboard: fleet counters, tenant shares with stage
// latencies, batch ETAs and in-flight progress bars, refreshed in
// place every -interval. -once prints a single snapshot (scripts and
// tests use it).
func topCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("helperd top", flag.ExitOnError)
	server := fs.String("server", ":8321", "job server address")
	interval := fs.Duration("interval", time.Second, "refresh period")
	once := fs.Bool("once", false, "print one snapshot and exit (no screen clearing)")
	fs.Parse(args)
	client := &grid.Client{Server: *server}
	for {
		m, err := client.Metrics(ctx)
		if err != nil {
			return err
		}
		var b strings.Builder
		renderTop(&b, grid.BaseURL(*server), &m)
		if *once {
			os.Stdout.WriteString(b.String())
			return nil
		}
		// ANSI home+clear keeps the refresh flicker-free on a dumb
		// terminal without any curses dependency.
		os.Stdout.WriteString("\033[H\033[2J" + b.String())
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(*interval):
		}
	}
}

// renderTop formats one metrics snapshot as the top screen.
func renderTop(b *strings.Builder, server string, m *grid.Metrics) {
	fmt.Fprintf(b, "helperd top — %s — %s\n\n", server, time.Now().Format("15:04:05"))
	fmt.Fprintf(b, "fleet    workers=%d peers=%d queued=%d leased=%d store=%d\n",
		m.Workers, m.Peers, m.QueueDepth, m.Leased, m.StoreEntries)
	fmt.Fprintf(b, "jobs     submitted=%d completed=%d failed=%d cache_hits=%d coalesced=%d\n",
		m.Submitted, m.Completed, m.Failed, m.CacheHits, m.Coalesced)
	fmt.Fprintf(b, "leases   granted=%d empty_polls=%d reassigned=%d steals=%d out/%d in\n",
		m.LeasesGranted, m.LeasePollEmpty, m.Reassigned, m.StealsOut, m.StealsIn)
	if t := m.Trace; t != nil {
		fmt.Fprintf(b, "trace    ring %d/%d events (lifetime %d, spill dropped %d)\n",
			t.Events, t.Capacity, t.Total, t.SpillDropped)
	}
	if a := m.Autoscaler; a != nil {
		fmt.Fprintf(b, "scaler   %d workers (target %d), %d ups, %d downs\n",
			a.Workers, a.Target, a.ScaleUps, a.ScaleDowns)
	}
	if len(m.Tenants) > 0 {
		fmt.Fprintf(b, "\n%-14s %6s %9s %9s %6s %7s %6s %11s %11s\n",
			"TENANT", "WEIGHT", "ADMITTED", "COMPLETED", "QUEUED", "RUNNING", "FAILED", "EXEC MEAN", "E2E MEAN")
		for _, t := range m.Tenants {
			fmt.Fprintf(b, "%-14s %6g %9d %9d %6d %7d %6d %11s %11s\n",
				t.ID, t.Weight, t.Admitted, t.Completed, t.Queued, t.Running, t.Failed,
				stageMean(t.Stages, "exec"), stageMean(t.Stages, "e2e"))
		}
	}
	if len(m.Batches) > 0 {
		fmt.Fprintf(b, "\n%-14s %8s %7s %8s %10s\n", "BATCH", "PENDING", "QUEUED", "RUNNING", "ETA")
		for _, bt := range m.Batches {
			eta := "-"
			if bt.EtaMS > 0 {
				eta = (time.Duration(bt.EtaMS) * time.Millisecond).Round(time.Millisecond).String()
			}
			fmt.Fprintf(b, "%-14s %8d %7d %8d %10s\n", bt.ID, bt.Pending, bt.Queued, bt.Running, eta)
		}
	}
	if len(m.Running) > 0 {
		fmt.Fprintf(b, "\nIN FLIGHT\n")
		for _, p := range m.Running {
			frac := 0.0
			if p.Total > 0 {
				frac = float64(p.Uops) / float64(p.Total)
			}
			fmt.Fprintf(b, "  %-12s [%s] %5.1f%%  ipc=%.3f rung=%s worker=%s\n",
				p.ID, progressBar(frac, 30), 100*frac, p.IntervalIPC, p.Rung, p.Worker)
		}
	}
}

// stageMean renders a tenant's mean latency for one stage, "-" before
// the first observation.
func stageMean(stages map[string]grid.LatencySummary, stage string) string {
	if s, ok := stages[stage]; ok && s.Count > 0 {
		return fmt.Sprintf("%.1fms", s.MeanMS)
	}
	return "-"
}

// progressBar renders a fixed-width ASCII fill bar.
func progressBar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	fill := int(frac * float64(width))
	return strings.Repeat("=", fill) + strings.Repeat(" ", width-fill)
}

// federateCmd prints one load-snapshot line per federation member: who
// it is, who it knows, and how much work it holds or could give away.
// Unreachable members are reported and skipped; the command fails only
// when nobody answers.
func federateCmd(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("helperd federate", flag.ExitOnError)
	servers := fs.String("servers", ":8321", "comma-separated federation members to query")
	peerSecret := fs.String("peer-secret", "", "shared secret for members serving with -peer-secret")
	fs.Parse(args)
	members := splitList(*servers)
	if len(members) == 0 {
		return fmt.Errorf("no servers given")
	}
	reached := 0
	for _, m := range members {
		client := &grid.Client{Server: m, PeerSecret: *peerSecret}
		st, err := client.PeerStatus(ctx)
		if err != nil {
			fmt.Printf("%-28s unreachable: %v\n", grid.BaseURL(m), err)
			continue
		}
		reached++
		self := st.Self
		if self == "" {
			self = grid.BaseURL(m) + " (unfederated)"
		}
		fmt.Printf("%-28s peers=%d queue=%d stealable=%d leased=%d workers=%d free=%d store=%d steals_out=%d steals_in=%d\n",
			self, len(st.Peers), st.QueueDepth, st.Stealable, st.Leased,
			st.Workers, st.FreeCapacity, st.StoreEntries, st.StealsOut, st.StealsIn)
	}
	if reached == 0 {
		return fmt.Errorf("no federation member reachable")
	}
	return nil
}

// readJobs loads a batch description: either one JSON array of jobs or
// NDJSON with one job per line (the shapes Job's decoder accepts,
// including registry-name shorthand).
func readJobs(path string) ([]repro.Job, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if t := bytes.TrimSpace(data); len(t) > 0 && t[0] == '[' {
		var jobs []repro.Job
		if err := json.Unmarshal(data, &jobs); err != nil {
			return nil, fmt.Errorf("decoding jobs array: %w", err)
		}
		return jobs, nil
	}
	var jobs []repro.Job
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var j repro.Job
		if err := json.Unmarshal(line, &j); err != nil {
			return nil, fmt.Errorf("decoding job line %d: %w", len(jobs)+1, err)
		}
		jobs = append(jobs, j)
	}
	return jobs, sc.Err()
}
