package grid

// Scheduler-policy tests: profile affinity at grant time and per-batch
// ETA estimates. These drive the worker protocol by hand
// (leaseRaw/completeRaw) so grant decisions are observable one step at
// a time.

import (
	"context"
	"testing"
	"time"
)

// profTask builds a payload-distinct task carrying a locality profile.
func profTask(id, profile string) Task {
	tk := mkTask(id, id)
	tk.Profile = profile
	return tk
}

// completeTask reports a granted task done, echoing its payload — the
// raw-protocol equivalent of echoExec.
func completeTask(t *testing.T, url, worker string, tk Task) {
	t.Helper()
	cr := completeRaw(t, url, completeRequest{
		Worker: worker, ID: tk.ID, Hash: tk.Hash, Attempt: tk.Attempt, Result: tk.Payload})
	if cr.Stale {
		t.Fatalf("completion of %s by %s unexpectedly stale", tk.ID, worker)
	}
}

// TestAffinityGrant pins the grant-time profile swap: once a worker has
// run a profile, an equal-priority queued task with that profile jumps
// ahead of a colder FIFO head for that worker — and the hit/miss
// counters see exactly that.
func TestAffinityGrant(t *testing.T) {
	srv, ts := testGrid(t)
	c := &Client{Server: ts.URL}

	// Round 1 seeds the history: w1 runs profile pa, w2 runs pb (both
	// grants are cold, so both count as misses).
	ch, err := c.Submit(context.Background(), []Task{profTask("a1", "pa"), profTask("b1", "pb")})
	if err != nil {
		t.Fatal(err)
	}
	lr := leaseRaw(t, ts.URL, "aff-w1", 1)
	if len(lr.Tasks) != 1 || lr.Tasks[0].Profile != "pa" {
		t.Fatalf("round 1 w1 lease = %+v, want the FIFO head (profile pa)", lr.Tasks)
	}
	completeTask(t, ts.URL, "aff-w1", lr.Tasks[0])
	lr = leaseRaw(t, ts.URL, "aff-w2", 1)
	if len(lr.Tasks) != 1 || lr.Tasks[0].Profile != "pb" {
		t.Fatalf("round 1 w2 lease = %+v, want profile pb", lr.Tasks)
	}
	completeTask(t, ts.URL, "aff-w2", lr.Tasks[0])
	collectResults(t, ch)

	// Round 2 queues pb BEFORE pa. Strict FIFO would hand w1 the pb
	// task; affinity must swap it for the pa one w1 is warm on, leaving
	// pb for w2 — warm grants on both sides.
	ch, err = c.Submit(context.Background(), []Task{profTask("b2", "pb"), profTask("a2", "pa")})
	if err != nil {
		t.Fatal(err)
	}
	lr = leaseRaw(t, ts.URL, "aff-w1", 1)
	if len(lr.Tasks) != 1 || lr.Tasks[0].Profile != "pa" {
		t.Fatalf("round 2 w1 lease = %+v, want the affine swap to profile pa", lr.Tasks)
	}
	completeTask(t, ts.URL, "aff-w1", lr.Tasks[0])
	lr = leaseRaw(t, ts.URL, "aff-w2", 1)
	if len(lr.Tasks) != 1 || lr.Tasks[0].Profile != "pb" {
		t.Fatalf("round 2 w2 lease = %+v, want profile pb", lr.Tasks)
	}
	completeTask(t, ts.URL, "aff-w2", lr.Tasks[0])
	collectResults(t, ch)

	m := srv.Metrics()
	if m.AffinityHits != 2 || m.AffinityMisses != 2 {
		t.Errorf("affinity hits/misses = %d/%d, want 2/2", m.AffinityHits, m.AffinityMisses)
	}
}

// TestBatchETAQueued checks the per-batch ETA surfaces on /metrics once
// the fleet EWMA is calibrated: one completed task seeds the average,
// and the still-queued backlog projects a positive remaining-time
// estimate sized in capacity waves.
func TestBatchETAQueued(t *testing.T) {
	srv, ts := testGrid(t)
	c := &Client{Server: ts.URL}
	tasks := []Task{mkTask("0", "x"), mkTask("1", "y"), mkTask("2", "z")}
	// Two of the three tasks never finish; cancelling the batch is what
	// lets the stream — and the test server — shut down.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch, err := c.Submit(ctx, tasks)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range ch {
		}
	}()

	// A capacity-1 worker takes the head, runs it for a measurable
	// ~30ms, and completes — seeding avgTaskDur.
	lr := leaseRaw(t, ts.URL, "eta-w", 1)
	if len(lr.Tasks) != 1 {
		t.Fatalf("leased %d tasks, want 1", len(lr.Tasks))
	}
	time.Sleep(30 * time.Millisecond)
	completeTask(t, ts.URL, "eta-w", lr.Tasks[0])

	m := srv.Metrics()
	if len(m.Batches) != 1 {
		t.Fatalf("metrics list %d batches, want 1: %+v", len(m.Batches), m.Batches)
	}
	b := m.Batches[0]
	if b.Pending != 2 || b.Queued != 2 || b.Running != 0 {
		t.Errorf("batch shape = pending %d queued %d running %d, want 2/2/0", b.Pending, b.Queued, b.Running)
	}
	// Two queued tasks through one capacity-1 worker = two waves on top
	// of the ~30ms EWMA; anything positive proves the projection wired
	// through.
	if b.EtaMS <= 0 {
		t.Errorf("batch ETA = %dms, want > 0", b.EtaMS)
	}
}
