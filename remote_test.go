package repro

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
)

func TestJobHash(t *testing.T) {
	w := mustWorkload(t, "gcc")
	j := Job{Policy: PolicyFull(), Workload: w, N: 10_000, Warmup: 2_000}
	h1, err := j.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := j.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hash not stable: %s vs %s", h1, h2)
	}
	if len(h1) != len("sha256:")+64 {
		t.Fatalf("hash %q not sha256-shaped", h1)
	}

	// The hash is over the canonical (resolved) form: a zero Config and
	// its explicit policy-derived equivalent address the same simulation.
	explicit := j
	explicit.Config = HelperConfig()
	he, err := explicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if he != h1 {
		t.Errorf("zero config (%s) and resolved config (%s) hash differently", h1, he)
	}

	// Any knob that changes the simulation changes the hash.
	for name, mut := range map[string]func(Job) Job{
		"n":        func(j Job) Job { j.N++; return j },
		"warmup":   func(j Job) Job { j.Warmup++; return j },
		"policy":   func(j Job) Job { j.Policy = Policy888(); return j },
		"workload": func(j Job) Job { j.Workload = mustWorkload(t, "mcf"); return j },
		"name":     func(j Job) Job { j.Name = "label"; return j },
	} {
		hm, err := mut(j).Hash()
		if err != nil {
			t.Fatal(err)
		}
		if hm == h1 {
			t.Errorf("mutating %s did not change the hash", name)
		}
	}
}

// TestRunAllDedupe checks that identical jobs in one RunAll batch are
// simulated once and fanned out: the progress callback (one invocation
// per executed job) counts unique jobs only.
func TestRunAllDedupe(t *testing.T) {
	w := mustWorkload(t, "gcc")
	a := Job{Policy: Policy888(), Workload: w, N: 3_000}
	b := Job{Policy: PolicyFull(), Workload: w, N: 3_000}
	var mu sync.Mutex
	executed := 0
	var total int
	r := NewRunner(WithProgress(func(p Progress) {
		mu.Lock()
		executed++
		total = p.Total
		mu.Unlock()
	}))
	results, err := r.RunAll(context.Background(), []Job{a, b, a, a})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results for 4 jobs", len(results))
	}
	mu.Lock()
	defer mu.Unlock()
	if executed != 2 || total != 2 {
		t.Errorf("executed %d jobs (progress total %d), want 2 unique", executed, total)
	}
	if !reflect.DeepEqual(results[0], results[2]) || !reflect.DeepEqual(results[0], results[3]) {
		t.Error("duplicate jobs received different results")
	}
	if reflect.DeepEqual(results[0], results[1]) {
		t.Error("distinct jobs received the same result")
	}
	if results[0].Policy != a.Policy.Name() || results[1].Policy != b.Policy.Name() {
		t.Error("fan-out scrambled result order")
	}
}

// TestRunAllJobError checks the failed-job attribution: RunAll wraps the
// first real failure in a *JobError carrying the original index and job.
func TestRunAllJobError(t *testing.T) {
	w := mustWorkload(t, "gcc")
	good := Job{Policy: PolicyBaseline(), Workload: w, N: 2_000}
	bad := Job{Name: "broken", Policy: PolicyBaseline(), Workload: w} // N == 0
	_, err := NewRunner().RunAll(context.Background(), []Job{good, bad})
	if err == nil {
		t.Fatal("invalid job did not fail the batch")
	}
	var jerr *JobError
	if !errors.As(err, &jerr) {
		t.Fatalf("RunAll error %T does not unwrap to *JobError", err)
	}
	if jerr.Index != 1 || jerr.Job.Name != "broken" {
		t.Errorf("JobError blames index %d job %q, want 1 %q", jerr.Index, jerr.Job.Name, "broken")
	}
	if _, merr := json.Marshal(jerr.Job); merr != nil {
		t.Errorf("failed job is not marshallable for reporting: %v", merr)
	}
}

// testGridRunner builds a grid (server + nWorkers in-process workers
// executing via the progress-capable JobExecProgress, like production
// helperd workers) and a Runner dispatching to it; everything is torn
// down with the test.
func testGridRunner(t *testing.T, nWorkers int, opts ...Option) (*Runner, *grid.Server) {
	return testGridRunnerTTL(t, nWorkers, 2*time.Second, opts...)
}

// testGridRunnerTTL is testGridRunner with a chosen lease TTL — workers
// heartbeat (and therefore publish progress) at TTL/3, so progress tests
// use a short one.
func testGridRunnerTTL(t *testing.T, nWorkers int, ttl time.Duration, opts ...Option) (*Runner, *grid.Server) {
	t.Helper()
	srv := grid.NewServer(grid.WithLeaseTTL(ttl))
	ts := httptest.NewServer(srv)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < nWorkers; i++ {
		w := &grid.Worker{
			Server:       ts.URL,
			Name:         fmt.Sprintf("tw%d", i),
			ExecProgress: NewRunner().JobExecProgress(20_000),
			Parallel:     2,
			LeaseWait:    100 * time.Millisecond,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		ts.Close()
		srv.Close()
	})
	return NewRunner(append([]Option{WithGrid(ts.URL)}, opts...)...), srv
}

// TestWithGridEndToEnd is the bit-equivalence acceptance test at the API
// level: the same batch through a grid of two workers and through the
// local pool must produce deeply equal Results, and a rerun must be
// served from the content-addressed store.
func TestWithGridEndToEnd(t *testing.T) {
	var jobs []Job
	for _, name := range []string{"gcc", "gzip"} {
		w := mustWorkload(t, name)
		jobs = append(jobs,
			Job{Policy: PolicyBaseline(), Workload: w, N: 4_000},
			Job{Policy: PolicyFull(), Workload: w, N: 4_000},
			Job{Policy: PolicyDynamic(), Workload: w, N: 4_000}, // dynamic policies travel by name
		)
	}
	local, err := NewRunner().RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	remote, srv := testGridRunner(t, 2)
	viaGrid, err := remote.RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(local, viaGrid) {
		t.Fatal("grid-routed results differ from local results")
	}

	again, err := remote.RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(local, again) {
		t.Fatal("cached grid results differ from local results")
	}
	m := srv.Metrics()
	if m.CacheHits < uint64(len(jobs)) {
		t.Errorf("rerun hit the cache %d times, want >= %d", m.CacheHits, len(jobs))
	}
	if got, err := remote.GridMetrics(context.Background()); err != nil || got.CacheHits != m.CacheHits {
		t.Errorf("GridMetrics = %+v, %v; want cache hits %d", got, err, m.CacheHits)
	}
}

// TestWithGridPerJobError mirrors TestRunBatchPerJobError over the wire:
// an invalid job fails fast client-side while the rest of the batch
// completes remotely.
func TestWithGridPerJobError(t *testing.T) {
	w := mustWorkload(t, "gcc")
	remote, _ := testGridRunner(t, 1)
	bad := Job{Policy: PolicyBaseline(), Workload: w} // N == 0
	good := Job{Policy: PolicyBaseline(), Workload: w, N: 2_000}
	var badErr, goodErr error
	var goodRes Result
	for jr := range remote.RunBatch(context.Background(), []Job{bad, good}) {
		switch jr.Index {
		case 0:
			badErr = jr.Err
		case 1:
			goodErr, goodRes = jr.Err, jr.Result
		}
	}
	if badErr == nil {
		t.Error("invalid job must surface its error in JobResult")
	}
	if goodErr != nil {
		t.Errorf("valid job failed alongside invalid one: %v", goodErr)
	}
	if goodRes.Metrics.Committed < good.N {
		t.Errorf("grid result committed %d, want >= %d", goodRes.Metrics.Committed, good.N)
	}
}

// TestWithGridCancellation cancels a grid batch mid-stream: the channel
// must close promptly and RunAll must report the context error.
func TestWithGridCancellation(t *testing.T) {
	w := mustWorkload(t, "gcc")
	remote, _ := testGridRunner(t, 1)
	var jobs []Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, Job{Name: fmt.Sprintf("big%d", i), Policy: PolicyFull(), Workload: w, N: 1 << 40})
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)
	done := make(chan error, 1)
	go func() {
		_, err := remote.RunAll(ctx, jobs)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled grid RunAll err = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled grid batch did not unwind")
	}
}

// TestWithGridProgressAndEarlyStop drives the observability leg at the
// API level: a batch under WithGridProgress must surface interval
// events (uops, total, rung) for a long-running job, and calling the
// event's Stop hook must end that job with ErrJobStopped while its
// batch siblings complete untouched — with the early stop visible in
// the server's lease counters.
func TestWithGridProgressAndEarlyStop(t *testing.T) {
	w := mustWorkload(t, "gcc")
	// The huge job can only finish quickly by being stopped; the quick
	// one proves stopping is per-job, not per-batch. The explicit tiny
	// warmup matters: progress (and therefore the stop) only starts with
	// the measured phase, and the default warmup of a 200M-uop job would
	// stall the test for tens of seconds before the first event.
	jobs := []Job{
		{Name: "quick", Policy: PolicyBaseline(), Workload: w, N: 3_000},
		{Name: "huge", Policy: PolicyFull(), Workload: w, N: 200_000_000, Warmup: 1_000},
	}

	type event struct {
		p       JobProgress
		stopped bool
	}
	events := make(chan event, 256)
	stopped := false
	remote, srv := testGridRunnerTTL(t, 1, 150*time.Millisecond, WithGridProgress(func(p JobProgress) {
		// Serial per the contract, so plain locals are safe.
		if p.Job.Name == "huge" && !stopped {
			stopped = true
			p.Stop()
		}
		select {
		case events <- event{p: p, stopped: stopped}:
		default:
		}
	}))

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var quickErr, hugeErr error
	var quickRes Result
	for jr := range remote.RunBatch(ctx, jobs) {
		switch jr.Job.Name {
		case "quick":
			quickErr, quickRes = jr.Err, jr.Result
		case "huge":
			hugeErr = jr.Err
		}
	}
	if ctx.Err() != nil {
		t.Fatal("early stop never took effect; batch ran to timeout")
	}
	if quickErr != nil {
		t.Errorf("sibling job failed: %v", quickErr)
	}
	if quickRes.Metrics.Committed < jobs[0].N {
		t.Errorf("sibling committed %d, want >= %d", quickRes.Metrics.Committed, jobs[0].N)
	}
	if !errors.Is(hugeErr, ErrJobStopped) {
		t.Errorf("stopped job err = %v, want ErrJobStopped", hugeErr)
	}

	saw := false
	for len(events) > 0 {
		ev := <-events
		if ev.p.Job.Name != "huge" {
			continue
		}
		saw = true
		if ev.p.Uops == 0 || ev.p.Total != jobs[1].N || ev.p.Rung == "" || ev.p.Worker == "" {
			t.Errorf("progress event lost fields: %+v", ev.p)
		}
		if ev.p.Stop == nil {
			t.Error("progress event has no Stop hook")
		}
	}
	if !saw {
		t.Fatal("no progress events for the long-running job")
	}
	if m := srv.Metrics(); m.EarlyStopped != 1 || m.ProgressUpdates == 0 {
		t.Errorf("metrics = %+v, want EarlyStopped=1, ProgressUpdates>0", m)
	}
}

// TestWithGridSubmitError covers the no-server case: every job fails
// with a dispatch error instead of hanging.
func TestWithGridSubmitError(t *testing.T) {
	w := mustWorkload(t, "gcc")
	r := NewRunner(WithGrid("127.0.0.1:1")) // nothing listens on port 1
	jobs := []Job{
		{Policy: PolicyBaseline(), Workload: w, N: 2_000},
		{Policy: PolicyFull(), Workload: w, N: 2_000},
	}
	n := 0
	for jr := range r.RunBatch(context.Background(), jobs) {
		if jr.Err == nil {
			t.Errorf("job %d succeeded with no server", jr.Index)
		}
		n++
	}
	if n != len(jobs) {
		t.Errorf("delivered %d results, want %d", n, len(jobs))
	}
	if _, err := r.Run(context.Background(), jobs[0]); err == nil {
		t.Error("Run succeeded with no server")
	}
}

// TestWithGridFailover pins the multi-peer contract: the peer list is
// the failover order. With the dead peer listed first, every job must
// fail over to the live one and finish byte-identical to a local run;
// with two live peers, the first-listed one receives the whole batch
// and the second none; and when the first peer dies mid-batch, the jobs
// it had not finished are resubmitted to the second and still finish
// byte-identical.
func TestWithGridFailover(t *testing.T) {
	w := mustWorkload(t, "gcc")
	// startGrid serves a grid with two workers running exec (nil: the
	// real job execution).
	startGrid := func(exec grid.ProgressExecFunc) (*grid.Server, *httptest.Server) {
		if exec == nil {
			exec = NewRunner().JobExecProgress(0)
		}
		srv := grid.NewServer(grid.WithLeaseTTL(2 * time.Second))
		ts := httptest.NewServer(srv)
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			gw := &grid.Worker{Server: ts.URL, Name: fmt.Sprintf("fo%d", i),
				ExecProgress: exec, Parallel: 2, LeaseWait: 100 * time.Millisecond}
			wg.Add(1)
			go func() {
				defer wg.Done()
				gw.Run(ctx)
			}()
		}
		t.Cleanup(func() {
			cancel()
			wg.Wait()
			ts.Close()
			srv.Close()
		})
		return srv, ts
	}

	jobs := []Job{
		{Policy: PolicyBaseline(), Workload: w, N: 2_000},
		{Policy: PolicyBaseline(), Workload: w, N: 3_000},
		{Policy: PolicyBaseline(), Workload: w, N: 4_000},
	}
	localRes, err := NewRunner().RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	runGrid := func(t *testing.T, addr string, opts ...Option) {
		t.Helper()
		gridRes, err := NewRunner(append(opts, WithGrid(addr))...).RunAll(context.Background(), jobs)
		if err != nil {
			t.Fatalf("grid batch over %s failed: %v", addr, err)
		}
		for i := range jobs {
			if !reflect.DeepEqual(gridRes[i], localRes[i]) {
				t.Errorf("job %d: grid result differs from local run", i)
			}
		}
	}

	t.Run("dead peer first", func(t *testing.T) {
		srv, live := startGrid(nil)
		runGrid(t, "127.0.0.1:1,"+live.URL) // nothing listens on port 1
		if m := srv.Metrics(); m.Submitted != uint64(len(jobs)) {
			t.Errorf("live peer saw %d submissions, want %d", m.Submitted, len(jobs))
		}
	})
	t.Run("two live peers", func(t *testing.T) {
		first, tsFirst := startGrid(nil)
		second, tsSecond := startGrid(nil)
		runGrid(t, tsFirst.URL+","+tsSecond.URL)
		if m := first.Metrics(); m.Submitted != uint64(len(jobs)) {
			t.Errorf("first peer saw %d submissions, want %d", m.Submitted, len(jobs))
		}
		if m := second.Metrics(); m.Submitted != 0 {
			t.Errorf("second peer saw %d submissions, want 0", m.Submitted)
		}
	})
	t.Run("first peer dies mid-batch", func(t *testing.T) {
		// The first peer's workers finish one job and hang on every
		// later one, so exactly one result streams before the peer's
		// connections are cut from the progress callback.
		real := NewRunner().JobExecProgress(0)
		var started atomic.Int32
		hang := func(ctx context.Context, payload []byte, report func(grid.TaskProgress)) ([]byte, error) {
			if started.Add(1) == 1 {
				return real(ctx, payload, report)
			}
			<-ctx.Done()
			return nil, ctx.Err()
		}
		first, tsFirst := startGrid(hang)
		second, tsSecond := startGrid(nil)
		cut := func(p Progress) {
			if p.Done == 1 {
				tsFirst.CloseClientConnections()
			}
		}
		runGrid(t, tsFirst.URL+","+tsSecond.URL, WithProgress(cut))
		if m := first.Metrics(); m.Completed != 1 {
			t.Errorf("first peer completed %d jobs before dying, want 1", m.Completed)
		}
		if m := second.Metrics(); m.Submitted != uint64(len(jobs)-1) {
			t.Errorf("second peer saw %d submissions, want the %d unfinished", m.Submitted, len(jobs)-1)
		}
	})
}

// TestWithGridDedupesPeers pins that one server listed under several
// spellings counts once: GridMetrics over the duplicated list must
// equal GridMetrics over the single address, not sum it twice.
func TestWithGridDedupesPeers(t *testing.T) {
	fake := grid.Metrics{Submitted: 3, CacheHits: 1, CacheMisses: 2, Completed: 2,
		LeasesGranted: 2, Workers: 1, StoreEntries: 2}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(fake)
	}))
	defer ts.Close()
	port := ts.URL[strings.LastIndex(ts.URL, ":"):]

	single, err := NewRunner(WithGrid(ts.URL)).GridMetrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dup, err := NewRunner(WithGrid(port + ",127.0.0.1" + port + "," + ts.URL + "/")).GridMetrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dup, single) {
		t.Errorf("duplicated peers: metrics %+v, want %+v", dup, single)
	}
	if single.Submitted != fake.Submitted {
		t.Errorf("single peer: submitted %d, want %d", single.Submitted, fake.Submitted)
	}
}

// TestGridMetricsMergesStages pins how GridMetrics folds the per-stage
// latency summaries of several peers: counts add, the mean is
// count-weighted and the max is the max of maxes.
func TestGridMetricsMergesStages(t *testing.T) {
	peer := func(s grid.LatencySummary) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(grid.Metrics{Stages: map[string]grid.LatencySummary{"exec": s}})
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	a := peer(grid.LatencySummary{Count: 1, MeanMS: 10, MaxMS: 10})
	b := peer(grid.LatencySummary{Count: 3, MeanMS: 30, MaxMS: 40})
	m, err := NewRunner(WithGrid(a + "," + b)).GridMetrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := grid.LatencySummary{Count: 4, MeanMS: 25, MaxMS: 40}
	if got := m.Stages["exec"]; got != want {
		t.Errorf("merged exec stage = %+v, want %+v", got, want)
	}
}
