package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/parallel"
)

// Worker pulls task leases from a grid server and runs them through Exec
// on a bounded local pool. Spawn one in-process (go w.Run(ctx)) for tests
// and examples, or as its own OS process via `helperd work`. Configure
// the fields before calling Run; they must not change afterwards.
//
// Held leases are renewed by a heartbeat every TTL/3 (the TTL learned
// from lease responses), plus one extra beat whenever a lease response
// reports a shorter TTL than the one the heartbeat timer was armed with.
type Worker struct {
	// Server is the job server address (BaseURL rules apply).
	Server string
	// Name identifies this worker to the server; leases, heartbeats and
	// completions are keyed by it. Defaults to host-pid.
	Name string
	// Exec runs one task payload. Required unless ExecProgress is set.
	Exec ExecFunc
	// ExecProgress, when non-nil, is used instead of Exec: it receives a
	// report callback for interval progress, and the worker relays the
	// latest snapshot per task to the server on every heartbeat.
	ExecProgress ProgressExecFunc
	// Parallel bounds concurrent task executions; < 1 means GOMAXPROCS.
	// It is also the capacity the worker reports, which caps how many
	// leases the server grants it — the load-balancing signal. A slot is
	// refilled as soon as its task finishes: the lease loop wakes on the
	// freed slot, not on a timer.
	Parallel int
	// LeaseWait is the long-poll patience per lease request (default 2s).
	LeaseWait time.Duration
	// HTTP overrides the transport (default http.DefaultClient).
	HTTP *http.Client

	base     string
	leaseTTL atomic.Int64  // ms, learned from lease responses
	hbWake   chan struct{} // nudges the heartbeat loop when the TTL shrinks
	slotFree chan struct{} // signalled by runTask when a slot frees up
	nameOnce sync.Once     // guards the host-pid default for Name

	// Graceful drain: drainCh is closed by Drain; Run then stops taking
	// new leases, finishes in-flight work (heartbeats keep flowing so the
	// leases stay renewed), posts the completions and returns nil.
	drainInit sync.Once
	drainStop sync.Once
	drainCh   chan struct{}

	mu       sync.Mutex
	cancels  map[string]context.CancelFunc
	progress map[string]TaskProgress // latest unsent snapshot per task
	inFlight atomic.Int64
	done     atomic.Uint64
	failed   atomic.Uint64
}

// completion is one finished task on its way back to the server.
type completion struct {
	id, hash string
	attempt  int
	result   []byte
	err      string
}

// drainChan lazily builds the drain signal so Drain may be called
// before, during or after Run (SIGTERM can land any time).
func (w *Worker) drainChan() chan struct{} {
	w.drainInit.Do(func() { w.drainCh = make(chan struct{}) })
	return w.drainCh
}

// Drain asks a running worker to wind down gracefully: stop taking new
// leases, finish and post everything in flight, then have Run return
// nil. `helperd work`'s SIGTERM handler uses it, so stopping a worker
// process gracefully never abandons a lease.
// Idempotent and safe from any goroutine.
func (w *Worker) Drain() {
	w.drainStop.Do(func() { close(w.drainChan()) })
}

// draining reports whether Drain has been called.
func (w *Worker) draining() bool {
	select {
	case <-w.drainChan():
		return true
	default:
		return false
	}
}

// Run pulls and executes leases until ctx is cancelled — returning
// ctx.Err() — or Drain is called, in which case it finishes in-flight
// tasks, posts their completions and returns nil. Server outages are
// retried with backoff — a worker survives its server restarting.
func (w *Worker) Run(ctx context.Context) error {
	if w.Exec == nil && w.ExecProgress == nil {
		return fmt.Errorf("grid: worker has no Exec")
	}
	w.name()
	w.base = BaseURL(w.Server)
	w.cancels = map[string]context.CancelFunc{}
	w.progress = map[string]TaskProgress{}
	w.hbWake = make(chan struct{}, 1)
	w.slotFree = make(chan struct{}, 1)
	// Assume a short TTL until the first lease response teaches the real
	// one: over-beating briefly is cheap, missing a short-TTL server's
	// deadline loses leases.
	w.leaseTTL.Store(time.Second.Milliseconds())
	par := w.Parallel
	if par < 1 {
		par = runtime.GOMAXPROCS(0)
	}
	leaseWait := w.LeaseWait
	if leaseWait <= 0 {
		leaseWait = 2 * time.Second
	}

	in := make(chan Task)
	out := parallel.StreamChan(ctx, in, par, w.runTask)

	// The poster and the heartbeat loop wind down in strict order on
	// drain: the poster must finish posting completions while heartbeats
	// are still renewing the leases, so they get separate WaitGroups and
	// the heartbeat loop a dedicated stop signal instead of sharing
	// ctx.Done().
	var postWG, hbWG sync.WaitGroup
	hbStop := make(chan struct{})
	postWG.Add(1)
	go func() { // completion poster
		defer postWG.Done()
		for c := range out {
			w.postComplete(ctx, c)
		}
	}()
	hbWG.Add(1)
	go func() { // heartbeat loop
		defer hbWG.Done()
		for {
			interval := time.Duration(w.leaseTTL.Load()) * time.Millisecond / 3
			if interval < 10*time.Millisecond {
				interval = 10 * time.Millisecond
			}
			timer := time.NewTimer(interval)
			select {
			case <-ctx.Done():
				timer.Stop()
				return
			case <-hbStop:
				timer.Stop()
				return
			case <-timer.C:
				w.heartbeat(ctx)
			case <-w.hbWake:
				// The server reported a shorter TTL than this timer was
				// armed with: renew immediately rather than risk the
				// scheduled beat landing past the new deadline.
				timer.Stop()
				w.heartbeat(ctx)
			}
		}
	}()

	// Drain aborts the in-flight long-poll lease request (but nothing
	// else): a granted-but-unread response is simply dropped and its
	// leases reassigned after the TTL, while idle drains — the common
	// case — stop waiting immediately.
	leaseCtx, cancelLease := context.WithCancel(ctx)
	defer cancelLease()
	go func() {
		select {
		case <-w.drainChan():
			cancelLease()
		case <-ctx.Done():
		}
	}()

	backoff := 100 * time.Millisecond
lease:
	for ctx.Err() == nil && !w.draining() {
		if int(w.inFlight.Load()) >= par {
			// All slots busy: nothing to ask for until runTask frees one.
			select {
			case <-w.slotFree:
			case <-ctx.Done():
			case <-w.drainChan():
			}
			continue
		}
		resp, err := w.lease(leaseCtx, par, leaseWait)
		if err != nil {
			if ctx.Err() != nil || w.draining() {
				break
			}
			if !sleepCtx(ctx, backoff) {
				break
			}
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			continue
		}
		backoff = 100 * time.Millisecond
		// A fresh grant carries a full TTL, so the heartbeat needs a nudge
		// only when the TTL shrank below what its timer was armed with.
		if resp.LeaseMS > 0 && w.leaseTTL.Swap(resp.LeaseMS) > resp.LeaseMS {
			select {
			case w.hbWake <- struct{}{}:
			default:
			}
		}
		for _, t := range resp.Tasks {
			// Drop a grant for a task this worker already holds: when
			// heartbeats are delayed past the TTL the server can re-lease
			// an expired task back to its own worker, and running a second
			// copy would corrupt the per-ID bookkeeping (and waste a slot —
			// the first execution's success completes the task regardless
			// of attempt). The in-flight entry is claimed here, under the
			// grant loop, so the check can never race with runTask's own
			// registration.
			w.mu.Lock()
			if _, held := w.cancels[t.ID]; held {
				w.mu.Unlock()
				continue
			}
			// Placeholder until runTask installs the real cancel; it also
			// keeps the task in heartbeat reports while it queues for a
			// pool slot, so the lease stays renewed.
			w.cancels[t.ID] = nil
			w.mu.Unlock()
			w.inFlight.Add(1)
			select {
			case in <- t:
			case <-ctx.Done():
				w.mu.Lock()
				delete(w.cancels, t.ID)
				w.mu.Unlock()
				w.inFlight.Add(-1)
				break lease
			}
		}
	}
	close(in)
	// The pool drains (in-flight tasks finish under the live ctx), closes
	// out, and the poster posts every completion — all while heartbeats
	// keep the leases renewed. Only then may the heartbeat loop stop. On
	// a drain ctx is still nil-error, so a drained worker returns nil.
	postWG.Wait()
	close(hbStop)
	hbWG.Wait()
	return ctx.Err()
}

// runTask executes one leased task under a per-task context so a server
// cancellation notice (heartbeat response) can abort just that task.
func (w *Worker) runTask(ctx context.Context, t Task) completion {
	tctx, cancel := context.WithCancel(ctx)
	w.mu.Lock()
	w.cancels[t.ID] = cancel
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.cancels, t.ID)
		delete(w.progress, t.ID)
		w.mu.Unlock()
		cancel()
		w.inFlight.Add(-1)
		select {
		case w.slotFree <- struct{}{}:
		default:
		}
	}()
	var result []byte
	var err error
	if w.ExecProgress != nil {
		result, err = w.ExecProgress(tctx, t.Payload, func(p TaskProgress) {
			p.ID, p.Hash, p.Worker = t.ID, t.Hash, w.name()
			w.mu.Lock()
			w.progress[t.ID] = p
			w.mu.Unlock()
		})
	} else {
		result, err = w.Exec(tctx, t.Payload)
	}
	c := completion{id: t.ID, hash: t.Hash, attempt: t.Attempt}
	if err != nil {
		c.err = err.Error()
		w.failed.Add(1)
	} else {
		c.result = result
		w.done.Add(1)
	}
	return c
}

// name resolves the worker's identity, defaulting to host-pid exactly
// once — Run and Healthz may race on a freshly constructed Worker, so
// the lazy write is fenced.
func (w *Worker) name() string {
	w.nameOnce.Do(func() {
		if w.Name == "" {
			host, _ := os.Hostname()
			if host == "" {
				host = "worker"
			}
			w.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
	})
	return w.Name
}

// cancelTasks aborts the named in-flight tasks (server said their
// subscribers left or their leases went stale). A nil entry is a task
// still queued for a pool slot — nothing to abort yet; the server will
// repeat the notice on a later heartbeat once it is running.
func (w *Worker) cancelTasks(ids []string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, id := range ids {
		if cancel, ok := w.cancels[id]; ok && cancel != nil {
			cancel()
		}
	}
}

// heldTasks snapshots the in-flight task IDs for a heartbeat, together
// with the progress reported since the previous beat (the pending map
// drains: a task that reported nothing new sends nothing).
func (w *Worker) heldTasks() ([]string, []TaskProgress) {
	w.mu.Lock()
	defer w.mu.Unlock()
	ids := make([]string, 0, len(w.cancels))
	for id := range w.cancels {
		ids = append(ids, id)
	}
	var prog []TaskProgress
	for id, p := range w.progress {
		prog = append(prog, p)
		delete(w.progress, id)
	}
	return ids, prog
}

func (w *Worker) lease(ctx context.Context, capacity int, wait time.Duration) (leaseResponse, error) {
	req := leaseRequest{
		Worker:   w.name(),
		Capacity: capacity,
		InFlight: int(w.inFlight.Load()),
		WaitMS:   int(wait.Milliseconds()),
	}
	var resp leaseResponse
	err := w.post(ctx, pathLease, req, &resp)
	return resp, err
}

func (w *Worker) heartbeat(ctx context.Context) {
	ids, prog := w.heldTasks()
	req := heartbeatRequest{
		Worker:   w.name(),
		Tasks:    ids,
		InFlight: int(w.inFlight.Load()),
		Progress: prog,
	}
	var resp heartbeatResponse
	if err := w.post(ctx, pathHeartbeat, req, &resp); err != nil {
		// Transient; the next beat retries. Progress drained for this
		// beat is lost, which the lossy-progress contract allows.
		return
	}
	w.cancelTasks(resp.Cancelled)
	w.cancelTasks(resp.Stale)
}

// postComplete reports a finished task, retrying a few times so one
// dropped packet does not discard a finished simulation (the lease
// reaper would eventually re-run it, but that wastes a whole execution).
func (w *Worker) postComplete(ctx context.Context, c completion) {
	req := completeRequest{Worker: w.name(), ID: c.id, Hash: c.hash,
		Attempt: c.attempt, Result: c.result, Err: c.err}
	for attempt := 0; attempt < 3; attempt++ {
		var resp completeResponse
		// The hash is the task's trace ID; echoing it as the trace header
		// keeps even a completion the server has forgotten the task for
		// attributable to its trace.
		if err := w.postTrace(ctx, pathComplete, c.hash, req, &resp); err == nil {
			return
		}
		if !sleepCtx(ctx, 200*time.Millisecond) {
			return
		}
	}
}

// post is the shared JSON POST helper; postTrace additionally stamps the
// task's trace context on the request.
func (w *Worker) post(ctx context.Context, path string, in, out any) error {
	return w.postTrace(ctx, path, "", in, out)
}

func (w *Worker) postTrace(ctx context.Context, path, trace string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set(TraceHeader, trace)
	}
	client := w.HTTP
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("grid: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Healthz returns an http.Handler serving the worker's load as JSON —
// the same shape the worker reports to the server on every lease, for
// anything (an operator, an external balancer) that wants to scrape it.
func (w *Worker) Healthz() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		par := w.Parallel
		if par < 1 {
			par = runtime.GOMAXPROCS(0)
		}
		writeJSON(rw, map[string]any{
			"ok":        true,
			"name":      w.name(),
			"capacity":  par,
			"in_flight": w.inFlight.Load(),
			"completed": w.done.Load(),
			"failed":    w.failed.Load(),
		})
	})
}

// sleepCtx sleeps d or until ctx is done; false means ctx ended first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}
