package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/grid"
)

// The grid workload runs short ladder jobs through WithGrid against an
// in-process grid.Server on loopback, executed by one in-process
// grid.Worker. Every iteration brings up a fresh grid (so the store
// starts cold), runs the job list once cold and once warm, and tears the
// grid down.

// gridEnv is one running in-process grid.
type gridEnv struct {
	srv       *grid.Server
	hs        *http.Server
	served    chan struct{}
	cancel    context.CancelFunc
	workerErr chan error
	runner    *repro.Runner
}

// startGrid brings up a server (with store as its storage when non-nil),
// a worker running exec on `workers` slots, and a Runner dispatching to
// them.
func startGrid(workers int, store grid.Storage, exec grid.ExecFunc) (*gridEnv, error) {
	opts := []grid.ServerOption{grid.WithTrace(16384)}
	if store != nil {
		opts = append(opts, grid.WithStorage(store))
	}
	srv := grid.NewServer(opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	g := &gridEnv{srv: srv, hs: &http.Server{Handler: srv}, served: make(chan struct{}), workerErr: make(chan error, 1)}
	go func() {
		defer close(g.served)
		_ = g.hs.Serve(ln) // ErrServerClosed once close runs
	}()
	addr := ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	g.cancel = cancel
	w := &grid.Worker{Server: addr, Name: "perfbench-worker", Exec: exec, Parallel: workers}
	go func() { g.workerErr <- w.Run(ctx) }()
	g.runner = repro.NewRunner(repro.WithGrid(addr))
	return g, nil
}

// close stops the worker and the server and waits for both.
func (g *gridEnv) close() error {
	g.cancel()
	werr := <-g.workerErr
	g.srv.Close()
	herr := g.hs.Close()
	<-g.served
	if werr != nil && !errors.Is(werr, context.Canceled) {
		return fmt.Errorf("grid worker: %w", werr)
	}
	return herr
}

// warmPasses is how many times an iteration resubmits its job list to
// the warm store. A warm pass is tens of milliseconds of JSON work, so
// one sample per iteration would be at the mercy of a single hiccup.
const warmPasses = 5

// gridIter is one measured grid iteration.
type gridIter struct {
	setup, cold   time.Duration
	warm          []time.Duration
	coldAlloc     uint64
	coldRes       []repro.Result
	warmRes       [][]repro.Result
	events        [][]grid.TraceEvent // per job, cold pass
	before, after grid.Metrics        // around the warm passes
}

// gridIteration runs one iteration. store and exec may be decorated (the
// traced run); nil store keeps the server's default.
func gridIteration(ctx context.Context, seed int64, workers int, store grid.Storage, exec grid.ExecFunc) (it gridIter, err error) {
	runtime.GC() // the previous iteration's garbage is not this one's set-up
	t0 := time.Now()
	jobs := gridJobs(seed)
	if exec == nil {
		exec = repro.NewRunner().JobExec()
	}
	g, err := startGrid(workers, store, exec)
	if err != nil {
		return it, err
	}
	defer func() {
		if cerr := g.close(); err == nil {
			err = cerr
		}
	}()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	it.coldRes, err = g.runner.RunAll(ctx, jobs)
	it.cold = time.Since(t)
	runtime.ReadMemStats(&m1)
	it.coldAlloc = m1.TotalAlloc - m0.TotalAlloc
	if err != nil {
		return it, fmt.Errorf("cold pass: %w", err)
	}

	// Lifecycle events of the cold pass, read before the warm pass adds
	// cache hits under the same trace IDs (a job's trace ID is its hash).
	firstLease := int64(0)
	it.events = make([][]grid.TraceEvent, len(jobs))
	for i, j := range jobs {
		h, err := j.Hash()
		if err != nil {
			return it, err
		}
		it.events[i] = g.srv.Tracer().Events(h)
		for _, ev := range it.events[i] {
			if ev.Stage == grid.StageLeased && (firstLease == 0 || ev.TimeNS < firstLease) {
				firstLease = ev.TimeNS
			}
		}
	}
	if firstLease == 0 {
		return it, fmt.Errorf("cold pass: no lease recorded")
	}
	it.setup = time.Duration(firstLease - t0.UnixNano())

	it.before = g.srv.Metrics()
	for k := 0; k < warmPasses; k++ {
		runtime.GC() // the cold pass's garbage is not the warm pass's
		t = time.Now()
		res, err := g.runner.RunAll(ctx, jobs)
		it.warm = append(it.warm, time.Since(t))
		if err != nil {
			return it, fmt.Errorf("warm pass %d: %w", k+1, err)
		}
		it.warmRes = append(it.warmRes, res)
	}
	it.after = g.srv.Metrics()
	return it, nil
}

// gridSample returns the fixed sample of job indexes whose grid results
// are compared byte for byte with an in-process run.
func gridSample(n int) []int {
	var idx []int
	for i := 0; i < n; i += 23 {
		idx = append(idx, i)
	}
	return idx
}

// checkGrid gates an iteration: both passes complete and commit their
// budgets, the warm pass is all store hits with no execution, and the
// sampled results match the in-process ones byte for byte.
func checkGrid(t *tally, label string, it gridIter, jobs []repro.Job, sample []int, local [][]byte, sha *string) {
	t.sameSHA(label+" cold", sha, t.checkPass(label+" cold", jobs, it.coldRes, nil), len(jobs))
	for _, res := range it.warmRes {
		t.sameSHA(label+" warm", sha, t.checkPass(label+" warm", jobs, res, nil), len(jobs))
	}
	want := uint64(len(it.warmRes) * len(jobs))
	hits := it.after.CacheHits - it.before.CacheHits
	execs := (it.after.Completed + it.after.Failed) - (it.before.Completed + it.before.Failed)
	if hits != want || execs != 0 {
		t.fail(int(want), "%s warm: %d of %d store hits, %d executions", label, hits, want, execs)
	}
	for k, i := range sample {
		for _, res := range append([][]repro.Result{it.coldRes}, it.warmRes...) {
			b, err := canonical(res[i])
			if err != nil || string(b) != string(local[k]) {
				t.fail(1, "%s: grid result of %s differs from the in-process run", label, jobs[i].Label())
			}
		}
	}
}

// localSample runs the sampled jobs in-process for the byte comparison.
func localSample(ctx context.Context, jobs []repro.Job, sample []int) ([][]byte, error) {
	var sj []repro.Job
	for _, i := range sample {
		sj = append(sj, jobs[i])
	}
	res, err := repro.NewRunner().RunAll(ctx, sj)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(res))
	for k, r := range res {
		if out[k], err = canonical(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// measureGrid is the untraced run of the grid workload.
func measureGrid(ctx context.Context, o opts, t *tally, out *output) error {
	jobs := gridJobs(o.seed)
	sample := gridSample(len(jobs))
	local, err := localSample(ctx, jobs, sample)
	if err != nil {
		return fmt.Errorf("in-process sample: %w", err)
	}
	t.attempted += len(sample)

	uops := uopsOf(jobs)
	var setups, colds, warms, allocs []float64
	var sha string
	deadline := time.Now().Add(o.seconds)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		it, err := gridIteration(ctx, o.seed, o.workers, nil, nil)
		label := fmt.Sprintf("iteration %d", i+1)
		if err != nil {
			t.attempted += (1 + warmPasses) * len(jobs)
			t.fail((1+warmPasses)*len(jobs), "%s: %v", label, err)
			break
		}
		checkGrid(t, label, it, jobs, sample, local, &sha)
		setups = append(setups, it.setup.Seconds())
		colds = append(colds, it.cold.Seconds())
		for _, d := range it.warm {
			warms = append(warms, d.Seconds())
		}
		allocs = append(allocs, float64(it.coldAlloc)/(1<<20))
	}
	if len(colds) == 0 {
		return fmt.Errorf("no grid iteration completed")
	}
	gap, err := fidelity(ctx, t, o.workers)
	if err != nil {
		return err
	}
	out.sha = sha
	out.gap = gap
	out.samples = map[string][]float64{"wall_s": colds, "rerun_s": warms, "setup_s": setups, "alloc_mb": allocs}
	out.e2e = map[string]float64{
		"wall_s":       median(colds),
		"muops_per_s":  uops / median(colds) / 1e6,
		"setup_s":      median(setups),
		"rerun_s":      median(warms),
		"alloc_mb":     median(allocs),
		"paper_gap_pp": gap.MeanPP,
	}
	return nil
}

// timedStore decorates the server's storage with a span per call.
type timedStore struct {
	inner grid.Storage
	spans *jobSpans

	mu         sync.Mutex
	gets, puts []float64 // µs
}

func (s *timedStore) Get(hash string) ([]byte, bool) {
	id := s.spans.open(hash, "store.get")
	b, ok := s.inner.Get(hash)
	sp := s.spans.rec.close(id)
	s.mu.Lock()
	s.gets = append(s.gets, us(sp.dur()))
	s.mu.Unlock()
	return b, ok
}

func (s *timedStore) Put(hash string, payload []byte) {
	id := s.spans.open(hash, "store.put")
	s.inner.Put(hash, payload)
	sp := s.spans.rec.close(id)
	s.mu.Lock()
	s.puts = append(s.puts, us(sp.dur()))
	s.mu.Unlock()
}

func (s *timedStore) Stats() (int, uint64, uint64) { return s.inner.Stats() }

// jobSpans maps job hashes to their pre-opened root spans, so calls the
// grid makes on a job's behalf nest under that job.
type jobSpans struct {
	rec   *recorder
	index map[string]int // hash → job index
	roots []int          // job index → root span ID
}

func (j *jobSpans) open(hash, name string) int {
	i, ok := j.index[hash]
	if !ok {
		return j.rec.open(-1, -1, name)
	}
	return j.rec.open(i, j.roots[i], name)
}

// traceGrid is the traced run of the grid workload: one untraced
// iteration as the overhead reference, one traced iteration with the
// storage and the worker's Exec decorated, then the in-process sample
// traced layer by layer for the synth and core metrics.
func traceGrid(ctx context.Context, o opts, t *tally, out *output) error {
	jobs := gridJobs(o.seed)
	sample := gridSample(len(jobs))
	local, err := localSample(ctx, jobs, sample)
	if err != nil {
		return fmt.Errorf("in-process sample: %w", err)
	}
	t.attempted += len(sample)
	var sha string
	ref, err := gridIteration(ctx, o.seed, o.workers, nil, nil)
	if err != nil {
		return fmt.Errorf("untraced iteration: %w", err)
	}
	checkGrid(t, "untraced iteration", ref, jobs, sample, local, &sha)

	rec := newRecorder()
	js := &jobSpans{rec: rec, index: map[string]int{}}
	for i, j := range jobs {
		h, err := j.Hash()
		if err != nil {
			return err
		}
		js.index[h] = i
		js.roots = append(js.roots, rec.open(i, -1, "job"))
	}
	store := &timedStore{inner: grid.NewStore(), spans: js}
	inner := repro.NewRunner().JobExec()
	var execMu sync.Mutex
	var execs []span
	exec := func(ctx context.Context, payload []byte) ([]byte, error) {
		id := js.open(grid.HashBytes(payload), "worker.exec")
		b, err := inner(ctx, payload)
		sp := rec.close(id)
		execMu.Lock()
		execs = append(execs, sp)
		execMu.Unlock()
		return b, err
	}
	it, err := gridIteration(ctx, o.seed, o.workers, store, exec)
	if err != nil {
		return fmt.Errorf("traced iteration: %w", err)
	}
	checkGrid(t, "traced iteration", it, jobs, sample, local, &sha)

	m := map[string]float64{}
	var adm, queue, execMS, e2e, fabric []float64
	for i, evs := range it.events {
		d := grid.Durations(evs)
		if d.EndToEnd < 0 || d.Exec < 0 {
			t.fail(1, "traced iteration: incomplete lifecycle trace for %s", jobs[i].Label())
			continue
		}
		adm = append(adm, ms(d.Admission))
		queue = append(queue, ms(d.Queue))
		execMS = append(execMS, ms(d.Exec))
		e2e = append(e2e, ms(d.EndToEnd))
		fabric = append(fabric, ms(d.EndToEnd-d.Exec))
		rec.setWall(js.roots[i], firstNS(evs, grid.StageAdmitted), lastTerminalNS(evs))
	}
	for name, xs := range map[string][]float64{
		"grid.admission_ms": adm, "grid.queue_ms": queue, "grid.exec_ms": execMS,
		"grid.e2e_ms": e2e, "grid.fabric_ms": fabric,
	} {
		m[name+"_p50"] = median(xs)
		m[name+"_p90"] = pctl(xs, 900)
	}
	m["store.get_us_p50"] = median(store.gets)
	m["store.get_us_p90"] = pctl(store.gets, 900)
	m["store.put_us_p50"] = median(store.puts)
	_, hits, misses := store.Stats()
	m["store.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	n := float64(len(jobs))
	m["grid.lease_poll_empty_per_job"] = float64(it.before.LeasePollEmpty) / n
	m["grid.reassigned"] = float64(it.after.Reassigned)
	m["grid.coalesced"] = float64(it.after.Coalesced)
	var execDur []float64
	for _, s := range execs {
		execDur = append(execDur, ms(s.dur()))
	}
	m["worker.exec_ms_p50"] = median(execDur)
	busy, tail := poolStats(execs, o.workers, it.cold)
	m["runner.busy_frac"] = busy
	m["runner.tail_s"] = tail.Seconds()
	m["trace_overhead_pct"] = 100 * (it.cold.Seconds()/ref.cold.Seconds() - 1)

	// The simulator layers, from the sampled jobs run in-process with a
	// span per layer call (trace IDs after the grid jobs').
	var sj []repro.Job
	for _, i := range sample {
		sj = append(sj, jobs[i])
	}
	sres, stm, err := tracedPass(ctx, rec, sj, o.workers, len(jobs))
	t.checkPass("traced in-process sample", sj, sres, err)
	if err != nil {
		return err
	}
	synthNS, err := synthLayer(m, jobs)
	if err != nil {
		return err
	}
	coreLayer(m, sj, sres, stm, synthNS)
	if err := coreAllocs(ctx, m, sj); err != nil {
		return err
	}
	simCounts(m, it.coldRes)
	wireLayer(m, t, jobs, it.coldRes)
	out.layer = m
	out.sha = sha
	out.rec = rec
	return nil
}

func firstNS(evs []grid.TraceEvent, stage string) int64 {
	var t int64
	for _, ev := range evs {
		if ev.Stage == stage && (t == 0 || ev.TimeNS < t) {
			t = ev.TimeNS
		}
	}
	return t
}

func lastTerminalNS(evs []grid.TraceEvent) int64 {
	var t int64
	for _, ev := range evs {
		switch ev.Stage {
		case grid.StageCompleted, grid.StageFailed, grid.StageCacheHit:
			t = max(t, ev.TimeNS)
		}
	}
	return t
}
