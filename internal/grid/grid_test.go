package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoExec returns the payload as the result — enough to check plumbing
// and byte fidelity.
func echoExec(_ context.Context, payload []byte) ([]byte, error) {
	return payload, nil
}

// testGrid spins up a server (short lease TTL so reassignment tests run
// fast) behind httptest and returns it with a teardown.
func testGrid(t *testing.T, opts ...ServerOption) (*Server, *httptest.Server) {
	t.Helper()
	if len(opts) == 0 {
		opts = []ServerOption{WithLeaseTTL(200 * time.Millisecond)}
	}
	s := NewServer(opts...)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// startWorker runs an in-process worker until the test ends.
func startWorker(t *testing.T, url string, exec ExecFunc, par int) context.CancelFunc {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	w := &Worker{Server: url, Exec: exec, Parallel: par, LeaseWait: 100 * time.Millisecond,
		Name: fmt.Sprintf("tw-%p", &ctx)}
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	stop := func() {
		cancel()
		<-done
	}
	t.Cleanup(stop)
	return cancel
}

func payload(s string) json.RawMessage {
	return json.RawMessage(fmt.Sprintf("{%q:%q}", "job", s))
}

func mkTask(id, body string) Task {
	p := payload(body)
	return Task{ID: id, Hash: HashBytes(p), Payload: p}
}

func collectResults(t *testing.T, ch <-chan TaskResult) map[string]TaskResult {
	t.Helper()
	out := map[string]TaskResult{}
	timeout := time.After(30 * time.Second)
	for {
		select {
		case tr, ok := <-ch:
			if !ok {
				return out
			}
			if _, dup := out[tr.ID]; dup {
				t.Fatalf("task %s delivered twice", tr.ID)
			}
			out[tr.ID] = tr
		case <-timeout:
			t.Fatalf("results stalled; got %d so far", len(out))
		}
	}
}

// TestBatchEndToEnd pushes a batch through server + two workers and
// checks delivery, dedupe of identical hashes within the batch, and the
// content-addressed cache on resubmission.
func TestBatchEndToEnd(t *testing.T) {
	srv, ts := testGrid(t)
	var execs atomic.Int64
	exec := func(ctx context.Context, p []byte) ([]byte, error) {
		execs.Add(1)
		return echoExec(ctx, p)
	}
	startWorker(t, ts.URL, exec, 2)
	startWorker(t, ts.URL, exec, 2)

	c := &Client{Server: ts.URL}
	tasks := []Task{mkTask("0", "a"), mkTask("1", "b"), mkTask("2", "a")} // 2 coalesces with 0
	ch, err := c.Submit(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	got := collectResults(t, ch)
	if len(got) != 3 {
		t.Fatalf("got %d results, want 3", len(got))
	}
	for _, tk := range tasks {
		tr, ok := got[tk.ID]
		if !ok {
			t.Fatalf("task %s never delivered", tk.ID)
		}
		if tr.Err != "" {
			t.Fatalf("task %s failed: %s", tk.ID, tr.Err)
		}
		if !bytes.Equal(tr.Payload, tk.Payload) {
			t.Errorf("task %s: result %s, want %s", tk.ID, tr.Payload, tk.Payload)
		}
		if tr.Hash != tk.Hash {
			t.Errorf("task %s: hash %s, want %s", tk.ID, tr.Hash, tk.Hash)
		}
	}
	if n := execs.Load(); n != 2 {
		t.Errorf("identical tasks ran %d times, want 2 (one per unique hash)", n)
	}

	// Resubmit: everything is a cache hit, byte-identical, no new execs.
	ch, err = c.Submit(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	again := collectResults(t, ch)
	for id, tr := range again {
		if !tr.Cached {
			t.Errorf("resubmitted task %s not served from cache", id)
		}
		if !bytes.Equal(tr.Payload, got[id].Payload) {
			t.Errorf("cached result for %s drifted", id)
		}
	}
	if n := execs.Load(); n != 2 {
		t.Errorf("cache hits re-ran jobs: %d execs", n)
	}

	m := srv.Metrics()
	if m.CacheHits != 2 || m.Coalesced != 2 || m.Completed != 2 {
		t.Errorf("metrics = %+v, want 2 hits, 2 coalesced, 2 completed", m)
	}
	// Every submitted job is exactly one of hit/coalesce/miss: the first
	// batch was 2 misses + 1 within-batch coalesce, the second 2 hits
	// (one store lookup per unique hash) + 1 coalesce.
	if m.CacheMisses != 2 {
		t.Errorf("cache misses = %d, want exactly 2 (coalesced jobs are not misses)", m.CacheMisses)
	}
	if m.Submitted != m.CacheHits+m.Coalesced+m.CacheMisses {
		t.Errorf("admission invariant broken: %+v", m)
	}
}

// TestTaskFailure delivers an exec error to the right subscriber and
// never caches it.
func TestTaskFailure(t *testing.T) {
	srv, ts := testGrid(t)
	exec := func(_ context.Context, p []byte) ([]byte, error) {
		if bytes.Contains(p, []byte("bad")) {
			return nil, fmt.Errorf("synthetic failure")
		}
		return p, nil
	}
	startWorker(t, ts.URL, exec, 1)

	c := &Client{Server: ts.URL}
	ch, err := c.Submit(context.Background(), []Task{mkTask("ok", "fine"), mkTask("boom", "bad")})
	if err != nil {
		t.Fatal(err)
	}
	got := collectResults(t, ch)
	if got["ok"].Err != "" {
		t.Errorf("good task failed: %s", got["ok"].Err)
	}
	if got["boom"].Err == "" {
		t.Error("failing task reported no error")
	}
	if entries, _, _ := srv.Store().Stats(); entries != 1 {
		t.Errorf("store has %d entries, want 1 (failures must not be cached)", entries)
	}
}

// TestPriorityOrder verifies the work queue drains high-priority first,
// FIFO within a priority. The batch is fully queued before the single
// serial worker starts, so the execution order is exactly the queue
// order after the grant.
func TestPriorityOrder(t *testing.T) {
	_, ts := testGrid(t)
	var mu sync.Mutex
	var order []string
	exec := func(_ context.Context, p []byte) ([]byte, error) {
		mu.Lock()
		order = append(order, string(p))
		mu.Unlock()
		return p, nil
	}

	var tasks []Task
	for i, prio := range []int{1, 5, 3, 5} {
		p := payload(fmt.Sprintf("p%d-%d", prio, i))
		tasks = append(tasks, Task{ID: fmt.Sprintf("%d", i), Hash: HashBytes(p), Priority: prio, Payload: p})
	}
	c := &Client{Server: ts.URL}
	ch, err := c.Submit(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	startWorker(t, ts.URL, exec, 1)
	collectResults(t, ch)

	mu.Lock()
	defer mu.Unlock()
	want := []string{string(payload("p5-1")), string(payload("p5-3")), string(payload("p3-2")), string(payload("p1-0"))}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

// leaseRaw drives the worker protocol by hand — a "worker" that takes a
// lease and then dies (never heartbeats, never completes).
func leaseRaw(t *testing.T, url, worker string, capacity int) leaseResponse {
	t.Helper()
	body, _ := json.Marshal(leaseRequest{Worker: worker, Capacity: capacity, WaitMS: 2000})
	resp, err := http.Post(url+pathLease, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lr leaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	return lr
}

// TestWorkerDeathReassignment kills a worker mid-task (it stops
// heartbeating after taking a lease) and checks the lease expires, the
// task is reassigned to a live worker, and the batch still completes.
func TestWorkerDeathReassignment(t *testing.T) {
	srv, ts := testGrid(t, WithLeaseTTL(150*time.Millisecond))
	c := &Client{Server: ts.URL}
	tasks := []Task{mkTask("0", "victim")}
	ch, err := c.Submit(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}

	// The doomed worker grabs the lease... and flatlines.
	lr := leaseRaw(t, ts.URL, "doomed", 1)
	if len(lr.Tasks) != 1 {
		t.Fatalf("dead worker leased %d tasks, want 1", len(lr.Tasks))
	}

	// A healthy worker shows up; after the TTL the task must migrate.
	startWorker(t, ts.URL, echoExec, 1)
	got := collectResults(t, ch)
	tr := got["0"]
	if tr.Err != "" {
		t.Fatalf("reassigned task failed: %s", tr.Err)
	}
	if !bytes.Equal(tr.Payload, tasks[0].Payload) {
		t.Errorf("reassigned result drifted: %s", tr.Payload)
	}
	if m := srv.Metrics(); m.Reassigned == 0 {
		t.Errorf("metrics show no reassignment: %+v", m)
	}
}

// completeRaw posts a completion on behalf of a named worker.
func completeRaw(t *testing.T, url string, req completeRequest) completeResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+pathComplete, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr completeResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	return cr
}

// TestStaleErrorCompletionIgnored pins the reassignment race: a worker
// whose lease expired aborts its execution and reports a context error —
// that must be answered Stale and must NOT fail the task, which a live
// worker then completes normally.
func TestStaleErrorCompletionIgnored(t *testing.T) {
	srv, ts := testGrid(t, WithLeaseTTL(100*time.Millisecond))
	c := &Client{Server: ts.URL}
	tasks := []Task{mkTask("0", "contested")}
	ch, err := c.Submit(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}

	lr := leaseRaw(t, ts.URL, "doomed", 1)
	if len(lr.Tasks) != 1 {
		t.Fatalf("leased %d tasks, want 1", len(lr.Tasks))
	}
	id := lr.Tasks[0].ID

	// Wait for the reaper to take the lease back.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().Reassigned == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The zombie reports its abort; the task must survive it.
	cr := completeRaw(t, ts.URL, completeRequest{
		Worker: "doomed", ID: id, Hash: tasks[0].Hash, Err: "context canceled"})
	if !cr.Stale {
		t.Error("stale error completion not marked stale")
	}

	startWorker(t, ts.URL, echoExec, 1)
	got := collectResults(t, ch)
	if tr := got["0"]; tr.Err != "" || !bytes.Equal(tr.Payload, tasks[0].Payload) {
		t.Fatalf("task poisoned by stale abort: err=%q payload=%s", tr.Err, tr.Payload)
	}
}

// TestSameWorkerStaleAbortIgnored pins the attempt-token half of the
// reassignment race: a task whose lease expires can be re-leased to the
// SAME worker, and the old execution's abort (same worker name, stale
// attempt) must be answered Stale rather than failing the new attempt.
func TestSameWorkerStaleAbortIgnored(t *testing.T) {
	srv, ts := testGrid(t, WithLeaseTTL(100*time.Millisecond))
	c := &Client{Server: ts.URL}
	tasks := []Task{mkTask("0", "release")}
	ch, err := c.Submit(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}

	// Attempt 1: leased, never heartbeaten; the reaper takes it back.
	lr := leaseRaw(t, ts.URL, "same", 1)
	if len(lr.Tasks) != 1 || lr.Tasks[0].Attempt != 1 {
		t.Fatalf("first lease = %+v, want one task at attempt 1", lr.Tasks)
	}
	old := lr.Tasks[0]
	deadline := time.Now().Add(10 * time.Second)
	for srv.Metrics().Reassigned == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Attempt 2: the same worker gets it again.
	var again leaseResponse
	for time.Now().Before(deadline) {
		if again = leaseRaw(t, ts.URL, "same", 1); len(again.Tasks) == 1 {
			break
		}
	}
	if len(again.Tasks) != 1 || again.Tasks[0].Attempt != 2 {
		t.Fatalf("second lease = %+v, want the task back at attempt 2", again.Tasks)
	}

	// The old attempt's abort arrives — same worker name, stale attempt.
	cr := completeRaw(t, ts.URL, completeRequest{
		Worker: "same", ID: old.ID, Hash: old.Hash, Attempt: old.Attempt, Err: "context canceled"})
	if !cr.Stale {
		t.Error("stale-attempt abort from the re-leased worker not marked stale")
	}

	// The live attempt completes; the batch must see success, not the
	// zombie's context error.
	completeRaw(t, ts.URL, completeRequest{
		Worker: "same", ID: again.Tasks[0].ID, Hash: old.Hash,
		Attempt: again.Tasks[0].Attempt, Result: tasks[0].Payload})
	got := collectResults(t, ch)
	if tr := got["0"]; tr.Err != "" || !bytes.Equal(tr.Payload, tasks[0].Payload) {
		t.Fatalf("task poisoned by same-worker stale abort: err=%q payload=%s", tr.Err, tr.Payload)
	}
}

// TestMaxAttempts fails a task whose every lease dies, instead of
// re-queueing it forever.
func TestMaxAttempts(t *testing.T) {
	_, ts := testGrid(t, WithLeaseTTL(80*time.Millisecond), WithMaxAttempts(2))
	c := &Client{Server: ts.URL}
	ch, err := c.Submit(context.Background(), []Task{mkTask("0", "cursed")})
	if err != nil {
		t.Fatal(err)
	}
	// Two generations of doomed workers take the lease and die.
	for i := 0; i < 2; i++ {
		deadline := time.Now().Add(10 * time.Second)
		for {
			lr := leaseRaw(t, ts.URL, fmt.Sprintf("doomed%d", i), 1)
			if len(lr.Tasks) == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("generation %d never got the lease", i)
			}
		}
	}
	got := collectResults(t, ch)
	if got["0"].Err == "" {
		t.Fatal("task with all-dead workers must fail after max attempts")
	}
}

// TestClientCancelMidStream cancels a batch while its tasks are running:
// the result channel must close promptly, the server must abandon the
// work, and the worker's execution contexts must be cancelled via the
// heartbeat channel — with no goroutine leaked anywhere.
func TestClientCancelMidStream(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		srv := NewServer(WithLeaseTTL(150 * time.Millisecond))
		ts := httptest.NewServer(srv)
		started := make(chan struct{}, 8)
		var aborted atomic.Int64
		exec := func(ctx context.Context, p []byte) ([]byte, error) {
			started <- struct{}{}
			<-ctx.Done() // simulate a long simulation; only cancellation ends it
			aborted.Add(1)
			return nil, ctx.Err()
		}
		w := &Worker{Server: ts.URL, Exec: exec, Parallel: 2, LeaseWait: 100 * time.Millisecond, Name: "cw"}
		wctx, wcancel := context.WithCancel(context.Background())
		workerDone := make(chan struct{})
		go func() {
			defer close(workerDone)
			w.Run(wctx)
		}()
		defer func() {
			wcancel()
			<-workerDone
			ts.Close()
			srv.Close()
		}()

		ctx, cancel := context.WithCancel(context.Background())
		c := &Client{Server: ts.URL}
		ch, err := c.Submit(ctx, []Task{mkTask("0", "x"), mkTask("1", "y"), mkTask("2", "z")})
		if err != nil {
			t.Fatal(err)
		}
		<-started // at least one task is actually running
		cancel()

		select {
		case _, ok := <-ch:
			for ok {
				_, ok = <-ch
			}
		case <-time.After(10 * time.Second):
			t.Fatal("result channel did not close after cancellation")
		}

		// The server notices the disconnect and cancels the in-flight
		// work at the workers' next heartbeat.
		deadline := time.Now().Add(10 * time.Second)
		for {
			m := srv.Metrics()
			if m.Abandoned > 0 && aborted.Load() > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("cancellation never propagated: metrics=%+v aborted=%d", m, aborted.Load())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: before=%d after=%d", before, runtime.NumGoroutine())
}

// TestServerWorkerShutdownNoLeak runs a full lifecycle — server, two
// workers, a batch — then tears everything down and checks every
// goroutine (reaper, pool workers, heartbeat, poster, batch handlers)
// exits.
func TestServerWorkerShutdownNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		s := NewServer(WithLeaseTTL(200 * time.Millisecond))
		ts := httptest.NewServer(s)
		wctx, wcancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			w := &Worker{Server: ts.URL, Exec: echoExec, Parallel: 2,
				LeaseWait: 100 * time.Millisecond, Name: fmt.Sprintf("lw%d", i)}
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.Run(wctx)
			}()
		}
		c := &Client{Server: ts.URL}
		var tasks []Task
		for i := 0; i < 8; i++ {
			tasks = append(tasks, mkTask(fmt.Sprintf("%d", i), fmt.Sprintf("job%d", i)))
		}
		ch, err := c.Submit(context.Background(), tasks)
		if err != nil {
			t.Fatal(err)
		}
		if got := collectResults(t, ch); len(got) != len(tasks) {
			t.Fatalf("delivered %d of %d", len(got), len(tasks))
		}
		wcancel()
		wg.Wait()
		ts.Close()
		s.Close()
	}()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: before=%d after=%d", before, runtime.NumGoroutine())
}

// TestStore pins the content-addressed store semantics: first write
// wins, hit/miss counters, no empty-hash entries.
func TestStore(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get("h1"); ok {
		t.Fatal("empty store hit")
	}
	s.Put("h1", []byte("a"))
	s.Put("h1", []byte("b")) // ignored: deterministic results make rewrites pointless
	if v, ok := s.Get("h1"); !ok || string(v) != "a" {
		t.Fatalf("got %q/%v, want first write", v, ok)
	}
	s.Put("", []byte("x"))
	entries, hits, misses := s.Stats()
	if entries != 1 || hits != 1 || misses != 1 {
		t.Errorf("stats = %d entries, %d hits, %d misses; want 1/1/1", entries, hits, misses)
	}
}

// TestBaseURL pins the address normalization rules.
func TestBaseURL(t *testing.T) {
	for in, want := range map[string]string{
		":8321":                  "http://127.0.0.1:8321",
		"host:8321":              "http://host:8321",
		"http://host:8321":       "http://host:8321",
		"http://host:8321/":      "http://host:8321",
		" https://grid.example ": "https://grid.example",
		"":                       "",
	} {
		if got := BaseURL(in); got != want {
			t.Errorf("BaseURL(%q) = %q, want %q", in, got, want)
		}
	}
}

// byteRun streams n copies of one byte without holding them in memory.
type byteRun struct {
	b byte
	n int64
}

func (r *byteRun) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.n {
		p = p[:r.n]
	}
	for i := range p {
		p[i] = r.b
	}
	r.n -= int64(len(p))
	return len(p), nil
}

// TestBatchBodyLimit posts a well-formed batch one byte over
// maxBatchBody and requires a 413 instead of the server buffering and
// queueing it; a normal batch afterwards must still complete.
func TestBatchBodyLimit(t *testing.T) {
	_, ts := testGrid(t, WithLeaseTTL(5*time.Second))
	startWorker(t, ts.URL, echoExec, 1)

	prefix := `{"jobs":[{"id":"big","payload":"`
	suffix := `"}]}`
	fill := int64(maxBatchBody+1) - int64(len(prefix)+len(suffix))
	body := io.MultiReader(strings.NewReader(prefix), &byteRun{b: 'x', n: fill},
		strings.NewReader(suffix))
	resp, err := http.Post(ts.URL+pathBatch, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit batch: %s, want 413", resp.Status)
	}

	c := &Client{Server: ts.URL}
	tk := mkTask("0", "after-oversize")
	ch, err := c.Submit(context.Background(), []Task{tk})
	if err != nil {
		t.Fatal(err)
	}
	if tr := collectResults(t, ch)["0"]; tr.Err != "" || !bytes.Equal(tr.Payload, tk.Payload) {
		t.Fatalf("normal batch after the refusal: %+v", tr)
	}
}

// TestSubmitRefusalIsError pins the client's one-shot submission: a
// non-200 batch answer, even one inviting a retry, is returned as an
// error carrying the status and the server's message, after exactly
// one request.
func TestSubmitRefusalIsError(t *testing.T) {
	var posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "grid: try later", http.StatusTooManyRequests)
	}))
	defer ts.Close()
	c := &Client{Server: ts.URL}
	_, err := c.Submit(context.Background(), []Task{mkTask("0", "refused")})
	if err == nil || !strings.Contains(err.Error(), "429") || !strings.Contains(err.Error(), "grid: try later") {
		t.Fatalf("Submit error = %v, want the 429 status and the server's message", err)
	}
	if n := posts.Load(); n != 1 {
		t.Errorf("%d batch posts, want 1", n)
	}
}
