package grid

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestWorkerDrainPreservesInflight pins Drain's safety property, the
// one `helperd work` relies on for SIGTERM: a drained worker finishes
// its in-flight lease and posts the result, and never cancels it. A
// single worker runs a gated task and is drained while the execution
// is still blocked; the task must complete exactly once with its own
// bytes, and Run must then return nil.
func TestWorkerDrainPreservesInflight(t *testing.T) {
	srv, ts := testGrid(t, WithLeaseTTL(2*time.Second))
	release := make(chan struct{})
	var execs atomic.Int64
	exec := func(ctx context.Context, p []byte) ([]byte, error) {
		execs.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return p, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Server: ts.URL, Exec: exec, Parallel: 1,
		LeaseWait: 50 * time.Millisecond, Name: "drain"}
	runErr := make(chan error, 1)
	go func() { runErr <- w.Run(ctx) }()

	tk := mkTask("0", "inflight-survives-drain")
	c := &Client{Server: ts.URL}
	ch, err := c.Submit(context.Background(), []Task{tk})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "worker to start executing", func() bool {
		return execs.Load() > 0
	})
	w.Drain()
	select {
	case tr := <-ch:
		t.Fatalf("result delivered before the gate opened: %+v", tr)
	case err := <-runErr:
		t.Fatalf("Run returned %v with a lease still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	got := collectResults(t, ch)
	if tr := got["0"]; len(got) != 1 || tr.Err != "" || !bytes.Equal(tr.Payload, tk.Payload) {
		t.Fatalf("drained worker lost the in-flight task: %+v", got)
	}
	if n := execs.Load(); n != 1 {
		t.Errorf("task executed %d times, want 1 (drain must not cancel or re-run)", n)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Errorf("drained Run returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drained worker did not exit")
	}
	if m := srv.Metrics(); m.Completed != 1 || m.Failed != 0 {
		t.Errorf("completed=%d failed=%d, want 1/0", m.Completed, m.Failed)
	}
}

// TestWorkerDrainWhileSlotsBusy drains a worker whose every slot is
// busy, so its lease loop is parked waiting for a slot to free up. The
// drain must wake it without taking more work: both in-flight tasks
// finish and are posted, the still-queued third task is left for
// another worker, and Run returns nil.
func TestWorkerDrainWhileSlotsBusy(t *testing.T) {
	srv, ts := testGrid(t, WithLeaseTTL(2*time.Second))
	release := make(chan struct{})
	var execs atomic.Int64
	exec := func(ctx context.Context, p []byte) ([]byte, error) {
		execs.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return p, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &Worker{Server: ts.URL, Exec: exec, Parallel: 2,
		LeaseWait: 50 * time.Millisecond, Name: "drain-busy"}
	runErr := make(chan error, 1)
	go func() { runErr <- w.Run(ctx) }()

	tasks := []Task{mkTask("0", "busy-0"), mkTask("1", "busy-1"), mkTask("2", "queued-2")}
	c := &Client{Server: ts.URL}
	ch, err := c.Submit(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "both slots to be busy", func() bool {
		return execs.Load() == 2
	})
	w.Drain()
	select {
	case err := <-runErr:
		t.Fatalf("Run returned %v with both slots still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(release)
	got := map[string]TaskResult{}
	for len(got) < 2 {
		select {
		case tr := <-ch:
			got[tr.ID] = tr
		case <-time.After(5 * time.Second):
			t.Fatalf("drained worker posted %d of 2 in-flight results", len(got))
		}
	}
	for id, tr := range got {
		if tr.Err != "" || id == "2" {
			t.Fatalf("unexpected result from the drained worker: %+v", tr)
		}
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Errorf("drained Run returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drained worker did not exit")
	}
	if n := execs.Load(); n != 2 {
		t.Errorf("drained worker executed %d tasks, want 2 (no new lease after Drain)", n)
	}

	// The queued task was never leased, so a fresh worker picks it up.
	startWorker(t, ts.URL, func(_ context.Context, p []byte) ([]byte, error) { return p, nil }, 1)
	rest := collectResults(t, ch)
	if tr, ok := rest["2"]; len(rest) != 1 || !ok || tr.Err != "" {
		t.Fatalf("queued task after drain: %+v", rest)
	}
	if m := srv.Metrics(); m.Completed != 3 || m.Reassigned != 0 {
		t.Errorf("completed=%d reassigned=%d, want 3/0", m.Completed, m.Reassigned)
	}
}

// TestWorkerRefillsFreedSlot pins the event-driven lease loop: a
// one-slot worker leases its next task as soon as the previous one
// finishes, not after a timer. 50 instant tasks need one lease round
// trip each; a loop that slept even 20 ms per full-slot round would
// take over a second.
func TestWorkerRefillsFreedSlot(t *testing.T) {
	_, ts := testGrid(t, WithLeaseTTL(5*time.Second))
	exec := func(_ context.Context, p []byte) ([]byte, error) { return p, nil }
	startWorker(t, ts.URL, exec, 1)

	const n = 50
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = mkTask(fmt.Sprint(i), fmt.Sprintf("refill-%d", i))
	}
	c := &Client{Server: ts.URL}
	start := time.Now()
	ch, err := c.Submit(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	got := collectResults(t, ch)
	elapsed := time.Since(start)
	if len(got) != n {
		t.Fatalf("got %d results, want %d", len(got), n)
	}
	t.Logf("%d tasks through one slot in %v", n, elapsed)
	if elapsed > 500*time.Millisecond {
		t.Errorf("%d instant tasks through one slot took %v, want <= 500ms: freed slots are not refilled promptly", n, elapsed)
	}
}

// TestWorkerHeartbeatCadence pins when the worker beats. With a lease
// TTL longer than the worker's initial 1 s assumption a grant needs no
// extra heartbeat — it already carries a full TTL — so a burst of
// instant tasks costs a handful of beats, not one per grant. With a TTL
// shorter than assumed, the first lease response must pull the
// heartbeat forward, so tasks outliving the TTL several times over keep
// their leases.
func TestWorkerHeartbeatCadence(t *testing.T) {
	countingGrid := func(t *testing.T, ttl time.Duration) (*Server, string, *atomic.Int64) {
		srv := NewServer(WithLeaseTTL(ttl))
		var beats atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == pathHeartbeat {
				beats.Add(1)
			}
			srv.ServeHTTP(rw, r)
		}))
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
		return srv, ts.URL, &beats
	}
	submit := func(t *testing.T, url, prefix string, n int) {
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = mkTask(fmt.Sprint(i), fmt.Sprintf("%s-%d", prefix, i))
		}
		ch, err := (&Client{Server: url}).Submit(context.Background(), tasks)
		if err != nil {
			t.Fatal(err)
		}
		got := collectResults(t, ch)
		for id, tr := range got {
			if tr.Err != "" {
				t.Fatalf("task %s failed: %s", id, tr.Err)
			}
		}
		if len(got) != n {
			t.Fatalf("got %d results, want %d", len(got), n)
		}
	}

	t.Run("long-ttl", func(t *testing.T) {
		_, url, beats := countingGrid(t, 5*time.Second)
		startWorker(t, url, func(_ context.Context, p []byte) ([]byte, error) { return p, nil }, 2)
		submit(t, url, "instant", 40)
		if n := beats.Load(); n > 5 {
			t.Errorf("%d heartbeats for 40 instant grants, want <= 5 (no beat per grant)", n)
		}
	})

	t.Run("short-ttl", func(t *testing.T) {
		const ttl = 150 * time.Millisecond
		srv, url, beats := countingGrid(t, ttl)
		startWorker(t, url, func(ctx context.Context, p []byte) ([]byte, error) {
			select {
			case <-time.After(3 * ttl):
				return p, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}, 2)
		submit(t, url, "slow", 4)
		if m := srv.Metrics(); m.Reassigned != 0 {
			t.Errorf("reassigned=%d with tasks lasting 3x a %v TTL, want 0 (heartbeat must follow the shrunk TTL)", m.Reassigned, ttl)
		}
		if beats.Load() == 0 {
			t.Error("no heartbeat while holding leases past their TTL")
		}
	})
}
