package grid

import (
	"bytes"
	"context"
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
