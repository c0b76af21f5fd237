// Command sweep runs configuration ablations (width predictor table size,
// helper clock ratio, copy latency, issue-queue sizing, helper datapath
// width, IR split variants, the confidence estimator) and the full SPEC
// Int 2000 policy-ladder sweep, all through the public batch Runner: every
// study is a list of Jobs fanned out by Runner.RunBatch with streamed
// progress, and Ctrl-C cancels mid-sweep.
//
// Usage:
//
//	sweep -study widthtable -workload gcc
//	sweep -study clockratio -n 150000
//	sweep -study ladder -workers 8
//
// Any study can run sharded over worker processes on the simulation grid:
//
//	sweep -study ladder -grid :0             # in-process server + spawned workers
//	sweep -study ladder -grid host:8321      # an external `helperd serve` cluster
//	sweep -study ladder -grid a:8321,b:8321  # a federation: the batch goes to a,
//	                                         # fails over to b; members steal work
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/grid"
	"repro/internal/profiling"
	"repro/internal/report"
)

func main() {
	var (
		study        = flag.String("study", "clockratio", "widthtable|clockratio|copylat|iqsize|confidence|helperwidth|splitmode|ladder|dynamic|ucb")
		workloadName = flag.String("workload", "crafty", "SPEC Int 2000 benchmark (ablation studies)")
		policyName   = flag.String("policy", "cr", "policy for the configuration ablations (see helpersim -list)")
		n            = flag.Uint64("n", 120_000, "measured uops per point")
		workers      = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		gridAddr     = flag.String("grid", "", "run the study on a simulation grid: a job-server address, a comma-separated list of federation members in failover order, or an address ending in :0 to spawn an in-process server plus -grid-workers worker processes")
		gridWorkers  = flag.Int("grid-workers", 2, "worker processes to spawn for -grid addresses ending in :0")
		gridWorkFor  = flag.String("as-grid-worker", "", "internal: run as a grid worker for the given server URL")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the study to this file")
		memProfile   = flag.String("memprofile", "", "write an allocs-inclusive heap profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Worker mode: `-grid :0` re-execs this binary as the worker shards.
	if *gridWorkFor != "" {
		w := &grid.Worker{Server: *gridWorkFor, Parallel: *workers,
			ExecProgress: repro.NewRunner().JobExecProgress(0)}
		if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
			fatal(err)
		}
		return
	}

	// Both progress callbacks rewrite the same stderr status line; on a
	// grid run they fire from different goroutines (batch completions vs
	// the result-stream reader), so the line is guarded by one mutex.
	var lineMu sync.Mutex
	opts := []repro.Option{
		repro.WithWorkers(*workers),
		repro.WithProgress(func(p repro.Progress) {
			lineMu.Lock()
			fmt.Fprintf(os.Stderr, "\r%d/%d %-60s", p.Done, p.Total, p.Job.Label())
			if p.Done == p.Total {
				fmt.Fprintln(os.Stderr)
			}
			lineMu.Unlock()
		}),
	}
	if *gridAddr != "" {
		addr, cleanup, err := setupGrid(ctx, *gridAddr, *gridWorkers, *workers)
		if err != nil {
			fatal(err)
		}
		// fatal exits without unwinding; make sure spawned worker
		// processes and the in-process server die with us either way.
		cleanupOnFatal = cleanup
		defer cleanup()
		// The live interval feed: between completions, show how far the
		// most recently heard-from point has gotten and what the steering
		// engine is doing there.
		opts = append(opts,
			repro.WithGrid(addr),
			repro.WithGridProgress(func(p repro.JobProgress) {
				pct := 0.0
				if p.Total > 0 {
					pct = 100 * float64(p.Uops) / float64(p.Total)
				}
				// The server's per-batch ETA rides on every progress event;
				// surface it so a long ladder shows when the batch lands.
				eta := ""
				if p.BatchETA > 0 {
					eta = fmt.Sprintf(" eta=%s", p.BatchETA.Round(time.Second))
				}
				lineMu.Lock()
				fmt.Fprintf(os.Stderr, "\r%-60s", fmt.Sprintf("%s %4.1f%% ipc=%.2f rung=%s%s",
					p.Job.Label(), pct, p.IntervalIPC, p.Rung, eta))
				lineMu.Unlock()
			}))
	}
	runner := repro.NewRunner(opts...)
	if *gridAddr != "" {
		defer reportGrid(runner)
	}

	if *study == "ladder" {
		runLadder(ctx, runner, *n)
		return
	}
	if *study == "dynamic" {
		runDynamic(ctx, runner, *n)
		return
	}
	if *study == "ucb" {
		runUCB(ctx, runner, *n)
		return
	}

	w, err := repro.WorkloadByName(*workloadName)
	if err != nil {
		fatal(err)
	}
	pol, err := repro.PolicyByName(*policyName)
	if err != nil {
		fatal(err)
	}
	warm := *n / 5

	// Every ablation is a labeled list of machine/policy points simulated
	// alongside one shared monolithic baseline (job index 0).
	type point struct {
		label  string
		config repro.Config
		policy repro.Policy
	}
	var (
		title  string
		points []point
	)
	vary := func(label string, mut func(*repro.Config)) point {
		cfg := repro.HelperConfig()
		mut(&cfg)
		return point{label: label, config: cfg, policy: pol}
	}
	switch *study {
	case "widthtable":
		// §3.2: "a size of 256 entries was found to be a good compromise".
		title = fmt.Sprintf("Width predictor table size — %s", w.Name)
		for _, entries := range []int{64, 128, 256, 512, 1024, 4096} {
			points = append(points, vary(fmt.Sprintf("%d entries", entries),
				func(c *repro.Config) { c.WidthEntries = entries }))
		}
	case "clockratio":
		// §2.2: the 8-bit backend can be clocked 2× faster.
		title = fmt.Sprintf("Helper clock ratio — %s", w.Name)
		for _, ratio := range []int{1, 2, 3} {
			points = append(points, vary(fmt.Sprintf("%dx", ratio),
				func(c *repro.Config) { c.HelperClockRatio = ratio }))
		}
	case "copylat":
		title = fmt.Sprintf("Inter-cluster copy latency — %s", w.Name)
		for _, lat := range []int{1, 2, 4, 8} {
			points = append(points, vary(fmt.Sprintf("%d cycles", lat),
				func(c *repro.Config) { c.CopyLatency = lat }))
		}
	case "iqsize":
		// §2.2 claims reduced issue queue size/width has negligible impact.
		title = fmt.Sprintf("Issue queue sizing — %s", w.Name)
		for _, size := range []int{8, 16, 32, 64} {
			points = append(points, vary(fmt.Sprintf("%d entries", size),
				func(c *repro.Config) { c.WideIQ, c.HelperIQ = size, size }))
		}
	case "helperwidth":
		// §2.1: a wider-than-8-bit helper captures more instructions.
		title = fmt.Sprintf("Helper datapath width — %s", w.Name)
		for _, bits := range []int{8, 16, 24} {
			points = append(points, vary(fmt.Sprintf("%d-bit", bits),
				func(c *repro.Config) { c.HelperWidthBits = bits }))
		}
	case "splitmode":
		// §3.7: per-uop splitting vs the tuned no-destination variant vs
		// the proposed block-granularity extension.
		title = fmt.Sprintf("IR splitting variants — %s", w.Name)
		for _, name := range []string{"ir", "irnd", "irblk"} {
			p := mustPolicy(name)
			points = append(points, point{label: p.Name(), config: repro.HelperConfig(), policy: p})
		}
	case "confidence":
		// §3.2: the 2-bit estimator cut fatal mispredictions 2.11%→0.83%.
		title = fmt.Sprintf("Confidence estimator — %s", w.Name)
		points = append(points,
			point{label: "with confidence", config: repro.HelperConfig(), policy: mustPolicy("888")},
			point{label: "without", config: repro.HelperConfig(), policy: mustPolicy("no-confidence")})
	default:
		fmt.Fprintf(os.Stderr, "unknown study %q\n", *study)
		os.Exit(1)
	}

	jobs := []repro.Job{{
		Name:   "baseline",
		Config: repro.BaselineConfig(), Policy: repro.PolicyBaseline(),
		Workload: w, N: *n, Warmup: warm,
	}}
	for _, p := range points {
		jobs = append(jobs, repro.Job{
			Name:   p.label,
			Config: p.config, Policy: p.policy,
			Workload: w, N: *n, Warmup: warm,
		})
	}
	results := collect(ctx, runner, jobs)

	base := results[0]
	t := report.NewTable(title, "speedup%", "copies%", "fatal")
	for i, p := range points {
		r := results[i+1]
		t.AddRow(p.label, 100*repro.SpeedupOf(r, base), 100*r.Metrics.CopyFrac(),
			float64(r.Metrics.FatalFlushes))
	}
	fmt.Println(t.Render())
}

// runLadder sweeps the paper's full cumulative policy ladder over all 12
// SPEC Int 2000 workloads in one RunBatch: 12 × (1 baseline + 7 rungs)
// jobs streamed off the worker pool.
func runLadder(ctx context.Context, runner *repro.Runner, n uint64) {
	apps := repro.SpecInt2000()
	ladder := repro.PolicyLadder()
	warm := n / 5

	var jobs []repro.Job
	for _, w := range apps {
		jobs = append(jobs, repro.Job{
			Config: repro.BaselineConfig(), Policy: repro.PolicyBaseline(),
			Workload: w, N: n, Warmup: warm,
		})
		for _, pol := range ladder {
			jobs = append(jobs, repro.Job{Policy: pol, Workload: w, N: n, Warmup: warm})
		}
	}
	results := collect(ctx, runner, jobs)

	cols := make([]string, len(ladder))
	for i, pol := range ladder {
		name := pol.Name()
		if cut := strings.LastIndex(name, "+"); i > 0 && cut >= 0 {
			name = name[cut:]
		}
		cols[i] = name
	}
	t := report.NewTable(fmt.Sprintf("SPEC Int 2000 policy ladder — speedup %% over baseline (%d uops)", n),
		cols...)
	stride := 1 + len(ladder)
	for ai, w := range apps {
		base := results[ai*stride]
		row := make([]float64, len(ladder))
		for pi := range ladder {
			row[pi] = 100 * repro.SpeedupOf(results[ai*stride+1+pi], base)
		}
		t.AddRow(w.Name, row...)
	}
	t.AddMeanRow()
	fmt.Println(t.Render())
}

// runDynamic compares the static ladder against the dynamic selectors on
// all 12 SPEC workloads: per app, the best static rung (a per-app oracle)
// vs the tournament and occupancy-adaptive policies, with the
// tournament's per-rung usage breakdown. One shared dynamic Policy value
// fans out safely — every simulation adapts from a private clone.
//
// internal/experiments runs the same study (FigDynamic/DynamicUsage)
// against the internal core; this version deliberately goes through the
// public Job/Runner surface, like every sweep study, so the two exercise
// different layers rather than sharing code.
func runDynamic(ctx context.Context, runner *repro.Runner, n uint64) {
	apps := repro.SpecInt2000()
	ladder := repro.PolicyLadder()
	tournament := repro.PolicyDynamic()
	occupancy := repro.PolicyAdaptive()
	warm := n / 5

	var jobs []repro.Job
	for _, w := range apps {
		jobs = append(jobs, repro.Job{
			Config: repro.BaselineConfig(), Policy: repro.PolicyBaseline(),
			Workload: w, N: n, Warmup: warm,
		})
		for _, pol := range ladder {
			jobs = append(jobs, repro.Job{Policy: pol, Workload: w, N: n, Warmup: warm})
		}
		jobs = append(jobs,
			repro.Job{Policy: tournament, Workload: w, N: n, Warmup: warm},
			repro.Job{Policy: occupancy, Workload: w, N: n, Warmup: warm})
	}
	results := collect(ctx, runner, jobs)

	t := report.NewTable(
		fmt.Sprintf("SPEC Int 2000 dynamic policy selection — speedup %% over baseline (%d uops)", n),
		"best-static", "tournament", "occupancy", "tour-minus-best")
	stride := 1 + len(ladder) + 2
	type appUsage struct {
		app   string
		rungs []repro.RungUsage
		total uint64
	}
	var usages []appUsage
	for ai, w := range apps {
		base := results[ai*stride]
		best := 0.0
		for pi := range ladder {
			if spd := 100 * repro.SpeedupOf(results[ai*stride+1+pi], base); pi == 0 || spd > best {
				best = spd
			}
		}
		tr := results[ai*stride+1+len(ladder)]
		oc := results[ai*stride+2+len(ladder)]
		tour := 100 * repro.SpeedupOf(tr, base)
		occ := 100 * repro.SpeedupOf(oc, base)
		t.AddRow(w.Name, best, tour, occ, tour-best)
		usages = append(usages, appUsage{app: w.Name, rungs: tr.Rungs, total: tr.Metrics.Committed})
	}
	t.AddMeanRow()
	fmt.Println(t.Render())

	fmt.Println("tournament rung usage (% of committed uops governed by each rung):")
	for _, u := range usages {
		fmt.Printf("  %-8s", u.app)
		for _, r := range u.rungs {
			share := 0.0
			if u.total > 0 {
				share = 100 * float64(r.Committed) / float64(u.total)
			}
			fmt.Printf("  %s %5.1f%%", r.Rung, share)
		}
		fmt.Println()
	}
}

// runUCB compares the two dynamic selection strategies against the static
// ladder on both axes the paper cares about: raw IPC speedup and the §3.7
// energy-delay² efficiency. Per app it runs baseline, every ladder rung,
// the tournament, and both UCB reward modes, then reports the best static
// rung on each axis (the per-app oracles) next to the selectors — the
// ED²-rewarded UCB optimizes that metric directly from the per-interval
// energy estimates the simulator feeds adaptive policies.
func runUCB(ctx context.Context, runner *repro.Runner, n uint64) {
	apps := repro.SpecInt2000()
	ladder := repro.PolicyLadder()
	dynamics := []repro.Policy{repro.PolicyDynamic(), repro.PolicyUCB(), repro.PolicyUCBED2()}
	warm := n / 5

	var jobs []repro.Job
	for _, w := range apps {
		jobs = append(jobs, repro.Job{
			Config: repro.BaselineConfig(), Policy: repro.PolicyBaseline(),
			Workload: w, N: n, Warmup: warm,
		})
		for _, pol := range ladder {
			jobs = append(jobs, repro.Job{Policy: pol, Workload: w, N: n, Warmup: warm})
		}
		for _, pol := range dynamics {
			jobs = append(jobs, repro.Job{Policy: pol, Workload: w, N: n, Warmup: warm})
		}
	}
	results := collect(ctx, runner, jobs)

	ipcT := report.NewTable(
		fmt.Sprintf("UCB vs tournament vs static ladder — speedup %% over baseline (%d uops)", n),
		"best-static", "tournament", "ucb-ipc", "ucb-ed2")
	ed2T := report.NewTable(
		fmt.Sprintf("UCB vs tournament vs static ladder — ED² gain %% over baseline (%d uops)", n),
		"best-static", "tournament", "ucb-ipc", "ucb-ed2")
	stride := 1 + len(ladder) + len(dynamics)
	baseCfg := repro.BaselineConfig()
	for ai, w := range apps {
		base := results[ai*stride]
		basePower := repro.EstimatePower(baseCfg, base)
		ed2Gain := func(r repro.Result, cfg repro.Config) float64 {
			return 100 * repro.ED2Gain(repro.EstimatePower(cfg, r), basePower)
		}
		bestIPC, bestED2 := 0.0, 0.0
		for pi := range ladder {
			r := results[ai*stride+1+pi]
			cfg := jobs[ai*stride+1+pi].EffectiveConfig()
			if spd := 100 * repro.SpeedupOf(r, base); pi == 0 || spd > bestIPC {
				bestIPC = spd
			}
			if g := ed2Gain(r, cfg); pi == 0 || g > bestED2 {
				bestED2 = g
			}
		}
		ipcRow := []float64{bestIPC}
		ed2Row := []float64{bestED2}
		for di := range dynamics {
			idx := ai*stride + 1 + len(ladder) + di
			r := results[idx]
			cfg := jobs[idx].EffectiveConfig()
			ipcRow = append(ipcRow, 100*repro.SpeedupOf(r, base))
			ed2Row = append(ed2Row, ed2Gain(r, cfg))
		}
		ipcT.AddRow(w.Name, ipcRow...)
		ed2T.AddRow(w.Name, ed2Row...)
	}
	ipcT.AddMeanRow()
	ed2T.AddMeanRow()
	fmt.Println(ipcT.Render())
	fmt.Println(ed2T.Render())
}

// setupGrid resolves the -grid flag: an address ending in :0 spawns an
// in-process job server on an ephemeral port plus nworkers copies of
// this binary as worker processes (the shard-over-processes mode), each
// inheriting the -workers parallelism bound; any other address is used
// as an external `helperd serve` cluster.
func setupGrid(ctx context.Context, addr string, nworkers, parallel int) (string, func(), error) {
	if !strings.HasSuffix(addr, ":0") {
		return addr, func() {}, nil
	}
	host := strings.TrimSuffix(addr, ":0")
	if host == "" {
		host = "127.0.0.1"
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return "", nil, fmt.Errorf("sweep: grid listen: %w", err)
	}
	// A snappy lease TTL: workers heartbeat (and publish interval
	// progress) at TTL/3, and an in-process loopback grid can afford
	// tight beats — with the default 5s, short jobs would finish before
	// the live progress line ever updated.
	srv := grid.NewServer(grid.WithLeaseTTL(time.Second))
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	url := "http://" + ln.Addr().String()

	self, err := os.Executable()
	if err != nil {
		hs.Close()
		srv.Close()
		return "", nil, fmt.Errorf("sweep: cannot re-exec for grid workers: %w", err)
	}
	if nworkers < 1 {
		nworkers = 1
	}
	// Split the parallelism budget across the spawned processes: N workers
	// each running the full -workers (or GOMAXPROCS) count would
	// oversubscribe the host N-fold.
	if parallel < 1 {
		parallel = runtime.GOMAXPROCS(0)
	}
	perWorker := (parallel + nworkers - 1) / nworkers
	var procs []*exec.Cmd
	for i := 0; i < nworkers; i++ {
		cmd := exec.CommandContext(ctx, self, "-as-grid-worker", url, "-workers", fmt.Sprint(perWorker))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			for _, p := range procs {
				p.Process.Kill()
			}
			hs.Close()
			srv.Close()
			return "", nil, fmt.Errorf("sweep: spawning grid worker: %w", err)
		}
		procs = append(procs, cmd)
	}
	fmt.Fprintf(os.Stderr, "sweep: grid server %s, %d worker processes\n", url, nworkers)
	cleanup := func() {
		for _, p := range procs {
			p.Process.Kill()
			p.Wait()
		}
		hs.Close()
		srv.Close()
	}
	return url, cleanup, nil
}

// reportGrid prints the grid's cache and lease counters after a study,
// so reruns show their cache hits and kill-a-worker runs their
// reassignments. On a federation the counters are summed across members
// and a second line reports the federation's own machinery: steals and
// affinity placement.
func reportGrid(runner *repro.Runner) {
	m, err := runner.GridMetrics(context.Background())
	if err != nil {
		return
	}
	fmt.Fprintf(os.Stderr, "sweep: grid: %d cache hits, %d misses, %d coalesced, %d reassigned, %d workers\n",
		m.CacheHits, m.CacheMisses, m.Coalesced, m.Reassigned, m.Workers)
	if m.Peers > 0 || m.StealsOut > 0 || m.StealsIn > 0 || m.AffinityHits > 0 || m.AffinityMisses > 0 {
		fmt.Fprintf(os.Stderr, "sweep: federation: %d peers, %d steals out, %d in, affinity %d/%d\n",
			m.Peers, m.StealsOut, m.StealsIn, m.AffinityHits, m.AffinityHits+m.AffinityMisses)
	}
}

// collect gathers a batch in job order, exiting with a clean message on
// failure or Ctrl-C. Any failed job exits non-zero with the job's
// canonical JSON on stderr, so the exact point can be re-run with
// `helperd submit`.
func collect(ctx context.Context, runner *repro.Runner, jobs []repro.Job) []repro.Result {
	results, err := runner.RunAll(ctx, jobs)
	if err != nil {
		fmt.Fprintln(os.Stderr)
		var jerr *repro.JobError
		if errors.As(err, &jerr) {
			if data, merr := json.Marshal(jerr.Job); merr == nil {
				fmt.Fprintf(os.Stderr, "sweep: failed job %d (canonical JSON): %s\n", jerr.Index, data)
			}
		}
		fatal(fmt.Errorf("sweep: %w", err))
	}
	return results
}

func mustPolicy(name string) repro.Policy {
	p, err := repro.PolicyByName(name)
	if err != nil {
		fatal(err)
	}
	return p
}

// cleanupOnFatal tears down the in-process grid (worker processes,
// server) when fatal bypasses main's defers.
var cleanupOnFatal func()

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	if cleanupOnFatal != nil {
		cleanupOnFatal()
	}
	os.Exit(1)
}
