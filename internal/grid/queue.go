package grid

import (
	"container/heap"
	"encoding/json"
	"time"
)

// task is the server-side state of one unit of work, shared by every
// batch that submitted its hash (subscribers). It moves queued → leased →
// completed; a lease that outlives its deadline without a heartbeat moves
// it back to queued (reassignment).
type task struct {
	id       string
	hash     string
	payload  json.RawMessage
	priority int
	seq      uint64 // FIFO tiebreak within a priority
	// tenant is the identity of the client that created the task (the
	// X-Grid-Client header, defaulted); the fair queue schedules across
	// tenants by weight. Coalescing batches from other tenants subscribe
	// without moving the task between tenants.
	tenant string
	// profile is the task's locality key (Task.Profile), "" when the
	// submitter did not supply one; hops the times it has been stolen
	// between federated servers (Task.Hops).
	profile string
	hops    int
	// enqueuedAt is when the task last entered the queue (admission or
	// requeue); the grant-time delta feeds the lease latency histogram.
	enqueuedAt time.Time
	// admittedAt is when the creating batch entered handleBatch — the
	// base of the admission and end-to-end stage latencies.
	admittedAt time.Time

	// heapIndex is the position in the priority queue, -1 while leased
	// (or otherwise out of the heap).
	heapIndex int
	// worker is the lease holder, "" while queued.
	worker string
	// deadline is the lease expiry, renewed by heartbeats.
	deadline time.Time
	// attempts counts lease assignments, bounding reassignment loops.
	attempts int
	// leasedAt is when the current lease was granted, firstLeased when
	// the very first one was (the base of the completed-duration EWMA
	// that calibrates ETAs), firstProgress when
	// the first interval snapshot arrived (the lease-to-first-progress
	// stage latency).
	leasedAt      time.Time
	firstLeased   time.Time
	firstProgress time.Time
	// cancelled marks a task every subscriber walked away from; it is
	// skipped at grant time and reported to its worker if already leased.
	// A new submission of the same hash revives it.
	cancelled bool
	// progress is the latest interval snapshot its worker heartbeat in
	// (ID is the server-side task ID), nil before the first report.
	progress *TaskProgress

	subs []subscriber
}

// subscriber is one (batch, job ID) waiting on a task's result. bytes is
// the payload size the subscription holds against its tenant's pending
// quota, released when the final result is delivered or the
// subscription is dropped.
type subscriber struct {
	batch *batch
	jobID string
	bytes int64
}

// batch is one connected /v1/batch client. Its result channel is
// buffered with the full job count at creation, so result delivery under
// the server lock never blocks on a slow reader. prog is non-nil only
// when the batch subscribed to progress; sends to it are non-blocking
// (progress is lossy, a slow stream just sees coarser updates).
type batch struct {
	id string
	// tenant is the admitting client's tenant state; pending-quota
	// release on delivery/drop is charged back to it.
	tenant *tenantState
	ch     chan TaskResult
	prog   chan TaskProgress
}

// sendProgress forwards one progress event without ever blocking.
func (b *batch) sendProgress(p TaskProgress) {
	if b.prog == nil {
		return
	}
	select {
	case b.prog <- p:
	default:
	}
}

// release hands the subscription's pending-quota hold back to its
// tenant. Must run under the server lock, like every tenant counter
// mutation.
func (sub subscriber) release() {
	if ts := sub.batch.tenant; ts != nil {
		ts.pendingJobs--
		ts.pendingBytes -= sub.bytes
	}
}

// deliver fans a completed task's result out to its subscribers, each
// under its own job ID, and clears the subscriber list. Runs under the
// server lock (quota release requires it).
func (t *task) deliver(res TaskResult) {
	for _, sub := range t.subs {
		r := res
		r.ID = sub.jobID
		sub.release()
		if ts := sub.batch.tenant; ts != nil {
			if res.Err == "" {
				ts.completed++
			} else {
				ts.failed++
			}
		}
		// Buffered to the batch's job count: cannot block.
		sub.batch.ch <- r
	}
	t.subs = nil
}

// taskHeap is the priority queue: higher Priority first, FIFO within a
// priority.
type taskHeap []*task

func (h taskHeap) Len() int { return len(h) }

func (h taskHeap) Less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority > h[j].priority
	}
	return h[i].seq < h[j].seq
}

func (h taskHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIndex = i
	h[j].heapIndex = j
}

func (h *taskHeap) Push(x any) {
	t := x.(*task)
	t.heapIndex = len(*h)
	*h = append(*h, t)
}

func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.heapIndex = -1
	*h = old[:n-1]
	return t
}

var _ heap.Interface = (*taskHeap)(nil)

// fairQueue is the server's work queue: one priority heap per tenant,
// scheduled across tenants by stride scheduling (weighted fair shares).
// The ordering contract, strongest first:
//
//  1. Priority strictly dominates — a queued task never waits behind a
//     lower-priority one, whoever submitted either.
//  2. Within a priority level, tenants share grants in proportion to
//     their weights: each grant charges the serving tenant's virtual
//     "pass" by size/weight, and the tenant with the smallest pass
//     serves next, so a backlogged 10k-job sweep cannot starve another
//     tenant's interactive ladder sharing its priority.
//  3. Within one tenant, the old order stands: priority desc, FIFO
//     (submission seq) within a priority.
//
// With a single tenant the stride layer degenerates to its one heap and
// the order is bit-identical to the pre-tenancy queue.
type fairQueue struct {
	active map[string]*tenantLane
	// passes persists each tenant's virtual time across idle periods so
	// a tenant cannot bank credit by going quiet: on re-activation its
	// pass is bumped to at least the queue's virtual clock.
	passes map[string]float64
	// vclock is the pass of the most recent charge — the queue's virtual
	// time.
	vclock float64
	// weight resolves a tenant's share (>= 1); nil means equal weights.
	weight func(tenant string) float64
	size   int
}

// tenantLane is one tenant's backlog: its own priority heap plus its
// stride pass.
type tenantLane struct {
	id   string
	heap taskHeap
	pass float64
}

func newFairQueue(weight func(string) float64) *fairQueue {
	return &fairQueue{
		active: map[string]*tenantLane{},
		passes: map[string]float64{},
		weight: weight,
	}
}

func (q *fairQueue) Len() int { return q.size }

// Push queues a task under its tenant, activating the lane if idle.
func (q *fairQueue) Push(t *task) {
	lane := q.active[t.tenant]
	if lane == nil {
		pass := q.passes[t.tenant]
		if pass < q.vclock {
			// No banked credit for having been idle.
			pass = q.vclock
		}
		lane = &tenantLane{id: t.tenant, pass: pass}
		q.active[t.tenant] = lane
	}
	heap.Push(&lane.heap, t)
	q.size++
}

// head returns the lane to serve next without removing anything: among
// lanes whose head task carries the queue's best priority, the one with
// the smallest pass (FIFO seq breaks pass ties so equal-weight tenants
// alternate deterministically).
func (q *fairQueue) head() *tenantLane {
	var best *tenantLane
	bestPrio := 0
	for _, lane := range q.active {
		p := lane.heap[0].priority
		switch {
		case best == nil || p > bestPrio:
			best, bestPrio = lane, p
		case p == bestPrio &&
			(lane.pass < best.pass ||
				(lane.pass == best.pass && lane.heap[0].seq < best.heap[0].seq)):
			best = lane
		}
	}
	return best
}

// Pop removes and returns the next task in grant order, nil on empty.
// Popping does NOT charge the tenant's pass — callers that actually
// grant the task call Charge, so a pop that is discarded (cancelled
// task) or pushed back (hop-bounded steal) costs
// the tenant nothing.
func (q *fairQueue) Pop() *task {
	lane := q.head()
	if lane == nil {
		return nil
	}
	t := heap.Pop(&lane.heap).(*task)
	q.deactivateIfEmpty(lane)
	q.size--
	return t
}

// Charge advances the task's tenant pass by one grant's worth of
// virtual time (1/weight) and the queue's virtual clock with it.
func (q *fairQueue) Charge(t *task) {
	w := 1.0
	if q.weight != nil {
		if got := q.weight(t.tenant); got > 0 {
			w = got
		}
	}
	pass := q.passes[t.tenant] + 1.0/w
	if lane := q.active[t.tenant]; lane != nil {
		lane.pass += 1.0 / w
		pass = lane.pass
	}
	q.passes[t.tenant] = pass
	if pass > q.vclock {
		q.vclock = pass
	}
}

// Remove deletes a queued task wherever it sits (heapIndex addressing
// within its tenant's lane).
func (q *fairQueue) Remove(t *task) {
	lane := q.active[t.tenant]
	if lane == nil || t.heapIndex < 0 {
		return
	}
	heap.Remove(&lane.heap, t.heapIndex)
	q.deactivateIfEmpty(lane)
	q.size--
}

func (q *fairQueue) deactivateIfEmpty(lane *tenantLane) {
	if len(lane.heap) == 0 {
		q.passes[lane.id] = lane.pass
		delete(q.active, lane.id)
	}
}

// each visits every queued task (no defined order).
func (q *fairQueue) each(f func(*task)) {
	for _, lane := range q.active {
		for _, t := range lane.heap {
			f(t)
		}
	}
}
