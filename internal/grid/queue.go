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

// subscriber is one (batch, job ID) waiting on a task's result.
type subscriber struct {
	batch *batch
	jobID string
}

// batch is one connected /v1/batch client. Its result channel is
// buffered with the full job count at creation, so result delivery under
// the server lock never blocks on a slow reader. prog is non-nil only
// when the batch subscribed to progress; sends to it are non-blocking
// (progress is lossy, a slow stream just sees coarser updates).
type batch struct {
	id   string
	ch   chan TaskResult
	prog chan TaskProgress
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

// deliver fans a completed task's result out to its subscribers, each
// under its own job ID, and clears the subscriber list. Runs under the
// server lock.
func (t *task) deliver(res TaskResult) {
	for _, sub := range t.subs {
		r := res
		r.ID = sub.jobID
		// Buffered to the batch's job count: cannot block.
		sub.batch.ch <- r
	}
	t.subs = nil
}

// taskHeap is the server's work queue, driven through container/heap:
// higher Priority first, FIFO (submission seq) within a priority. Each
// task tracks its own heapIndex, so a queued task can be removed from
// anywhere (heap.Remove) when it completes or is granted out of order.
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
