package grid

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestQueueOrderSerialProperty drains a randomly-prioritized batch one
// lease at a time and requires the exact (priority desc, FIFO within a
// priority) order — the full ordering property, not a hand-picked case
// like TestPriorityOrder. Several seeds, so the property holds across
// shapes (duplicate priorities, runs of equal ones, extremes).
func TestQueueOrderSerialProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			_, ts := testGrid(t, WithLeaseTTL(5*time.Second))
			rng := rand.New(rand.NewSource(seed))
			const n = 40
			type spec struct {
				id   string
				prio int
			}
			var specs []spec
			var tasks []Task
			for i := 0; i < n; i++ {
				p := payload(fmt.Sprintf("s%d-job-%d", seed, i))
				prio := rng.Intn(5) - 2 // negatives too
				id := fmt.Sprintf("%d", i)
				specs = append(specs, spec{id: id, prio: prio})
				tasks = append(tasks, Task{ID: id, Hash: HashBytes(p), Priority: prio, Payload: p})
			}
			c := &Client{Server: ts.URL}
			ch, err := c.Submit(context.Background(), tasks)
			if err != nil {
				t.Fatal(err)
			}

			// Drain: one task per lease, completed immediately, so the
			// grant sequence is exactly the queue order.
			var granted []string
			for len(granted) < n {
				lr := leaseRaw(t, ts.URL, "serial", 1)
				for _, tk := range lr.Tasks {
					granted = append(granted, tk.ID)
					completeRaw(t, ts.URL, completeRequest{
						Worker: "serial", ID: tk.ID, Hash: tk.Hash, Result: tk.Payload})
				}
			}
			collectResults(t, ch)

			// The model: stable sort by priority desc keeps submission
			// order within equal priorities (FIFO tiebreak).
			want := make([]spec, n)
			copy(want, specs)
			sort.SliceStable(want, func(i, j int) bool { return want[i].prio > want[j].prio })
			// Granted IDs are server task IDs; map back through payloads.
			// Server task IDs are assigned in submission order (t1..tn), so
			// task "t<k>" corresponds to batch index k-1.
			for i, tid := range granted {
				k := 0
				fmt.Sscanf(strings.TrimPrefix(tid, "t"), "%d", &k)
				gotID := fmt.Sprintf("%d", k-1)
				if gotID != want[i].id {
					t.Fatalf("seed %d: grant %d = job %s (prio %d), want job %s (prio %d)\nfull order: %v",
						seed, i, gotID, specs[k-1].prio, want[i].id, want[i].prio, granted)
				}
			}
		})
	}
}

// TestQueueConcurrentInterleavings is the chaos property (run under
// -race by `make race` and CI): several raw-protocol workers lease,
// complete, ignore (forcing expiry + reassignment), and die, while a
// subset of cursed tasks is never completed at all. Required invariants,
// per seed:
//
//   - every job is delivered exactly once (no loss, no duplication),
//   - cursed jobs fail via max-attempts exhaustion, everything else
//     succeeds with its own bytes,
//   - within any single lease grant, priorities are non-increasing (the
//     heap pops in order even while completions and reassignments churn
//     it),
//   - Completed+Failed on the server equals the unique task count.
func TestQueueConcurrentInterleavings(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			srv, ts := testGrid(t, WithLeaseTTL(60*time.Millisecond), WithMaxAttempts(8))
			rng := rand.New(rand.NewSource(seed))
			const n = 24
			cursed := map[string]bool{} // by payload content
			var tasks []Task
			for i := 0; i < n; i++ {
				body := fmt.Sprintf("c%d-job-%d", seed, i)
				if i%6 == 5 {
					body = "cursed-" + body
					cursed[body] = true
				}
				p := payload(body)
				tasks = append(tasks, Task{
					ID: fmt.Sprintf("%d", i), Hash: HashBytes(p),
					Priority: rng.Intn(4), Payload: p,
				})
			}
			c := &Client{Server: ts.URL}
			ch, err := c.Submit(context.Background(), tasks)
			if err != nil {
				t.Fatal(err)
			}

			stop := make(chan struct{})
			var wg sync.WaitGroup
			var orderMu sync.Mutex
			var orderViolation string
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					grng := rand.New(rand.NewSource(seed*100 + int64(g)))
					worker := fmt.Sprintf("chaos-%d-%d", seed, g)
					for {
						select {
						case <-stop:
							return
						default:
						}
						capacity := 1 + grng.Intn(3)
						lr := leaseRaw(t, ts.URL, worker, capacity)
						for i := 1; i < len(lr.Tasks); i++ {
							if lr.Tasks[i].Priority > lr.Tasks[i-1].Priority {
								orderMu.Lock()
								orderViolation = fmt.Sprintf(
									"grant to %s not priority-ordered: %d before %d",
									worker, lr.Tasks[i-1].Priority, lr.Tasks[i].Priority)
								orderMu.Unlock()
							}
						}
						for _, tk := range lr.Tasks {
							// Cursed tasks are never completed; healthy ones
							// are sometimes ignored too, forcing lease expiry
							// and reassignment mid-stream.
							if bytes.Contains(tk.Payload, []byte("cursed")) || grng.Intn(4) == 0 {
								continue
							}
							completeRaw(t, ts.URL, completeRequest{
								Worker: worker, ID: tk.ID, Hash: tk.Hash, Result: tk.Payload})
						}
					}
				}(g)
			}

			got := collectResults(t, ch) // fatals on duplicate delivery
			close(stop)
			wg.Wait()

			orderMu.Lock()
			if orderViolation != "" {
				t.Error(orderViolation)
			}
			orderMu.Unlock()
			if len(got) != n {
				t.Fatalf("delivered %d of %d", len(got), n)
			}
			for _, tk := range tasks {
				tr := got[tk.ID]
				isCursed := bytes.Contains(tk.Payload, []byte("cursed"))
				switch {
				case isCursed && tr.Err == "":
					t.Errorf("cursed task %s succeeded; max-attempts never triggered", tk.ID)
				case isCursed && !strings.Contains(tr.Err, "abandoned after"):
					t.Errorf("cursed task %s failed oddly: %s", tk.ID, tr.Err)
				case !isCursed && tr.Err != "":
					t.Errorf("healthy task %s failed: %s", tk.ID, tr.Err)
				case !isCursed && !bytes.Equal(tr.Payload, tk.Payload):
					t.Errorf("task %s corrupted: %s", tk.ID, tr.Payload)
				}
			}
			if m := srv.Metrics(); m.Completed+m.Failed != n {
				t.Errorf("completed %d + failed %d != %d unique tasks", m.Completed, m.Failed, n)
			}
		})
	}
}
