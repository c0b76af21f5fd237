package grid

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// faultTransport is the fault-injection harness: a RoundTripper that
// drops, delays, duplicates, or loses the response of heartbeat and
// complete posts — the two legs whose loss or replay could lose a job
// or double-count it. Lease and batch traffic passes clean so the test
// converges. Faults draw from a seeded RNG, so a failure replays.
type faultTransport struct {
	base http.RoundTripper

	mu  sync.Mutex
	rng *rand.Rand
	// Counters of injected faults, so the test can prove the harness
	// actually bit.
	dropped, duplicated, delayed, respLost int
}

func (ft *faultTransport) roll(n int) int {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	return ft.rng.Intn(n)
}

func (ft *faultTransport) count(c *int) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	*c++
}

func (ft *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != pathHeartbeat && req.URL.Path != pathComplete {
		return ft.base.RoundTrip(req)
	}
	switch r := ft.roll(100); {
	case r < 12:
		// Dropped on the floor: the server never sees it.
		ft.count(&ft.dropped)
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		return nil, fmt.Errorf("fault: dropped %s", req.URL.Path)
	case r < 24:
		// Delivered, but the response is lost: the caller retries a
		// request the server already processed — the double-count trap.
		ft.count(&ft.respLost)
		resp, err := ft.base.RoundTrip(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return nil, fmt.Errorf("fault: response lost for %s", req.URL.Path)
	case r < 36:
		// Duplicated: the server processes the same post twice.
		ft.count(&ft.duplicated)
		if req.GetBody != nil {
			if body, err := req.GetBody(); err == nil {
				dup := req.Clone(req.Context())
				dup.Body = body
				if resp, err := ft.base.RoundTrip(dup); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}
		return ft.base.RoundTrip(req)
	case r < 48:
		// Delayed, but within the lease TTL.
		ft.count(&ft.delayed)
		time.Sleep(time.Duration(5+ft.roll(40)) * time.Millisecond)
		return ft.base.RoundTrip(req)
	}
	return ft.base.RoundTrip(req)
}

// TestSameWorkerReLeaseNoDoubleRun pins the worker-side half of the
// same-worker re-lease race: with every heartbeat dropped, the lease
// expires mid-execution and the server grants the task back to the same
// worker — which must drop the duplicate grant (the first execution is
// still running and its success completes the task) instead of running
// the payload twice over corrupted per-ID bookkeeping.
func TestSameWorkerReLeaseNoDoubleRun(t *testing.T) {
	srv, ts := testGrid(t, WithLeaseTTL(100*time.Millisecond), WithMaxAttempts(20))
	drop := &faultTransport{base: http.DefaultTransport, rng: rand.New(rand.NewSource(1))}
	// Repurpose the harness as a deterministic heartbeat black hole.
	dropAll := http.RoundTripper(roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if req.URL.Path == pathHeartbeat {
			if req.Body != nil {
				io.Copy(io.Discard, req.Body)
				req.Body.Close()
			}
			return nil, fmt.Errorf("fault: heartbeat black hole")
		}
		return drop.base.RoundTrip(req)
	}))

	var execs atomic.Int64
	exec := func(ctx context.Context, p []byte) ([]byte, error) {
		execs.Add(1)
		// Longer than several lease TTLs, so expiry + re-grant happens
		// while this execution is still running.
		if !sleepCtx(ctx, 400*time.Millisecond) {
			return nil, ctx.Err()
		}
		return p, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Server: ts.URL, Exec: exec, Parallel: 2, LeaseWait: 50 * time.Millisecond,
		Name: "release", HTTP: &http.Client{Transport: dropAll}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()

	c := &Client{Server: ts.URL}
	tasks := []Task{mkTask("0", "re-leased")}
	ch, err := c.Submit(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	got := collectResults(t, ch)
	if tr := got["0"]; tr.Err != "" || !bytes.Equal(tr.Payload, tasks[0].Payload) {
		t.Fatalf("task lost to the re-lease race: %+v", tr)
	}
	if n := execs.Load(); n != 1 {
		t.Errorf("payload executed %d times, want 1 (duplicate grant must be dropped)", n)
	}
	if m := srv.Metrics(); m.Reassigned == 0 {
		t.Errorf("lease never expired — the scenario did not exercise re-grant: %+v", m)
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestFaultInjectionNoLossNoDoubleCount runs a batch through a worker
// whose heartbeat and complete posts are dropped, delayed, duplicated,
// and stripped of their responses. The batch must still deliver every
// task exactly once with the right bytes, and the server counters must
// account for each task exactly once (a retried or duplicated complete
// must be answered stale, never recounted).
func TestFaultInjectionNoLossNoDoubleCount(t *testing.T) {
	srv, ts := testGrid(t, WithLeaseTTL(400*time.Millisecond), WithMaxAttempts(20))
	ft := &faultTransport{base: http.DefaultTransport, rng: rand.New(rand.NewSource(7))}

	exec := func(ctx context.Context, p []byte) ([]byte, error) {
		// Long enough that heartbeats matter, short against the TTL.
		if !sleepCtx(ctx, 30*time.Millisecond) {
			return nil, ctx.Err()
		}
		return p, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Server: ts.URL, Exec: exec, Parallel: 3, LeaseWait: 100 * time.Millisecond,
		Name: "flaky", HTTP: &http.Client{Transport: ft}}
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		w.Run(ctx)
	}()
	defer func() {
		cancel()
		<-workerDone
	}()

	const n = 14
	var tasks []Task
	for i := 0; i < n; i++ {
		tasks = append(tasks, mkTask(fmt.Sprintf("%d", i), fmt.Sprintf("fault-job-%d", i)))
	}
	c := &Client{Server: ts.URL}
	ch, err := c.Submit(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	got := collectResults(t, ch) // fatals on any double delivery
	if len(got) != n {
		t.Fatalf("delivered %d of %d", len(got), n)
	}
	for _, tk := range tasks {
		tr := got[tk.ID]
		if tr.Err != "" {
			t.Errorf("task %s lost to faults: %s", tk.ID, tr.Err)
		} else if !bytes.Equal(tr.Payload, tk.Payload) {
			t.Errorf("task %s corrupted: %s", tk.ID, tr.Payload)
		}
	}

	m := srv.Metrics()
	// Exactly-once accounting: every unique task resolves exactly once,
	// regardless of how many times its completion was retried or
	// duplicated in flight, and nothing fails.
	if m.Completed != n || m.Failed != 0 {
		t.Errorf("metrics completed=%d failed=%d, want %d/0 (no loss, no double count)",
			m.Completed, m.Failed, n)
	}
	if entries, _, _ := srv.Store().Stats(); entries != n {
		t.Errorf("store holds %d entries, want %d", entries, n)
	}

	ft.mu.Lock()
	faults := ft.dropped + ft.duplicated + ft.delayed + ft.respLost
	t.Logf("injected faults: %d dropped, %d duplicated, %d delayed, %d responses lost",
		ft.dropped, ft.duplicated, ft.delayed, ft.respLost)
	ft.mu.Unlock()
	if faults == 0 {
		t.Fatal("fault harness injected nothing; the test proved nothing")
	}
}
