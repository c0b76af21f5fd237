package repro

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/grid"
)

// Grid dispatch: a Runner built WithGrid sends its jobs to a grid job
// server (internal/grid, spawned via cmd/helperd or in-process) instead
// of simulating locally. Jobs travel as their canonical round-trip JSON
// keyed by Job.Hash, so the server's content-addressed result store
// answers repeated sweep points without re-simulating, identical jobs
// coalesce onto one execution, and dead workers' leases are reassigned —
// all transparent to Run/RunBatch/RunAll callers.

// WithGrid routes the Runner's executions to a grid job server instead
// of the local worker pool. addr is one server (":8321", "host:8321" or
// a full http URL) or a comma-separated list of federated peers in
// failover order: a batch goes whole to the first peer (the federation
// spreads it across members by work stealing), and when a peer is
// unreachable or dies mid-batch its unfinished jobs are resubmitted to
// the next one, where any result already banked in the federation's
// shared store is a cache hit. Peers naming the same server after
// normalisation are listed once. Job defaults (warmup fraction, derived
// config) resolve client-side before dispatch, so results are
// bit-identical to a local run. WithWorkers does not limit a grid batch
// — the servers' workers set the parallelism.
func WithGrid(addr string) Option {
	return func(r *Runner) {
		var peers []string
		for _, a := range strings.Split(addr, ",") {
			if u := grid.BaseURL(a); u != "" && !slices.Contains(peers, u) {
				peers = append(peers, u)
			}
		}
		r.grid = strings.Join(peers, ",")
	}
}

// gridPeers splits the Runner's normalized peer list.
func gridPeers(gridAddr string) []string {
	if gridAddr == "" {
		return nil
	}
	return strings.Split(gridAddr, ",")
}

// profileKey is a job's locality profile: a short hash over the
// resolved workload and machine configuration (not the policy or
// budgets), so every sweep point probing one workload/machine pair maps
// to the same key. Each grid server prefers granting a profiled task to
// a worker that recently ran the same profile.
func profileKey(j Job) string {
	data, err := json.Marshal(struct {
		W Workload `json:"w"`
		C Config   `json:"c"`
	}{j.Workload, j.EffectiveConfig()})
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(data)
	return "p:" + hex.EncodeToString(sum[:8])
}

// WithGridPriority sets the queue priority of every job this Runner
// submits (higher runs first; the default is 0, ties are FIFO). An
// interactive probe can overtake a bulk sweep sharing the same grid.
func WithGridPriority(p int) Option {
	return func(r *Runner) { r.gridPriority = p }
}

// WithGridClientID names the tenant this Runner submits as (the
// X-Grid-Client header): a multi-tenant grid server rate-limits,
// quota-checks and fair-shares by it. Empty (the default) submits as
// the server's shared anonymous tenant.
func WithGridClientID(id string) Option {
	return func(r *Runner) { r.gridClientID = id }
}

// GridBackoff shapes how grid submissions retry admission refusals
// (HTTP 429/503 + Retry-After from a multi-tenant server); see the
// field docs on the underlying type. The zero value means the
// defaults.
type GridBackoff = grid.Backoff

// WithGridBackoff overrides the admission-refusal retry policy for
// this Runner's grid submissions.
func WithGridBackoff(b GridBackoff) Option {
	return func(r *Runner) { r.gridBackoff = b }
}

// WithGridPeerSecret holds the federation's shared peer secret (the
// helperd -peer-secret value) so the Runner's grid clients can reach
// the authenticated peer seam — today the /v1/peer/status snapshot
// behind GridMetrics and `helperd federate`. Job submission and result
// streaming never need it; against an unauthenticated grid the secret
// is simply unused.
func WithGridPeerSecret(secret string) Option {
	return func(r *Runner) { r.gridSecret = secret }
}

// JobProgress is one interval-granular progress event of a grid job
// still running: which job, how far along, and what the steering engine
// is doing right now — the Observe stream surfaced to the submitting
// client. Events are best-effort (workers publish them over heartbeats;
// a dropped snapshot just means a coarser next one).
type JobProgress struct {
	// Index is the job's position in the batch slice; Job the job as
	// submitted (defaults resolved).
	Index int
	Job   Job
	// Uops of Total committed uops of the measured phase have retired.
	Uops  uint64
	Total uint64
	// IntervalIPC is the IPC of the most recent feedback interval.
	IntervalIPC float64
	// Rung names the steering feature set governing the interval (a
	// dynamic selector's current choice; the policy itself when static).
	Rung string
	// Phase is the interval's program-phase ID, -1 without a detector.
	Phase int
	// Worker names the grid worker running the job.
	Worker string
	// BatchETA is the server's rough estimate of how long until the
	// whole batch finishes, stamped on the event server-side (zero when
	// the server cannot estimate yet — no completions to calibrate on).
	BatchETA time.Duration
	// Stop cancels this one job early: it finishes immediately with
	// ErrJobStopped (the rest of the batch keeps running) and its
	// simulation is aborted at the worker through the per-task
	// cancellation path. Safe to call from the callback or later, and
	// idempotent. Best-effort: the cancel request is bounded by a short
	// timeout and a transient failure is dropped — the job then simply
	// keeps running and keeps producing progress events, so callback
	// logic that stops on a condition will fire again.
	Stop func()
}

// ErrJobStopped reports a grid job ended early because a WithGridProgress
// callback stopped it. Test with errors.Is on the JobResult error.
var ErrJobStopped = errors.New("repro: job stopped early")

// WithGridProgress installs an interval progress callback for grid
// dispatch: once per published interval snapshot of every running job,
// fn receives a JobProgress (including a Stop hook for early stopping —
// cancel a sweep point as soon as its numbers are conclusive). Events
// arrive serially from the result-stream goroutine, which may run
// concurrently with the WithProgress completion callback; fn must be
// quick and do its own locking if the two share state. The option is
// inert on a Runner without WithGrid.
func WithGridProgress(fn func(JobProgress)) Option {
	return func(r *Runner) { r.gridProgress = fn }
}

// GridTaskProgress is the wire-level progress snapshot a worker-side
// execution reports (see the field docs on the underlying type);
// JobExecProgress fills its measurement fields and the grid worker
// stamps the identity ones.
type GridTaskProgress = grid.TaskProgress

// JobExec returns the payload-level execution function a grid worker
// plugs into its Exec slot: canonical Job JSON in, canonical Result JSON
// out. The returned function runs every job locally with exactly the
// Warmup it carries (the wire convention: dispatchers resolve defaults
// before submitting), regardless of this Runner's own warmup fraction or
// grid dispatch mode.
func (r *Runner) JobExec() func(ctx context.Context, payload []byte) ([]byte, error) {
	exec := r.JobExecProgress(0)
	return func(ctx context.Context, payload []byte) ([]byte, error) {
		return exec(ctx, payload, nil)
	}
}

// JobExecProgress is JobExec for progress-capable workers (the Worker's
// ExecProgress slot): the same canonical-JSON-in, canonical-JSON-out
// execution, plus an interval progress report — every `every` committed
// uops of the measured phase (0 picks the job's natural granularity:
// the policy's Observe interval, else N/50), report receives the uops
// retired, the interval IPC, the active rung, and the phase ID. The
// hook is read-only, so results stay bit-identical to JobExec.
func (r *Runner) JobExecProgress(every uint64) func(ctx context.Context, payload []byte, report func(GridTaskProgress)) ([]byte, error) {
	local := *r
	local.warmupFrac = 0
	local.grid = ""
	local.progress = nil
	local.gridProgress = nil
	return func(ctx context.Context, payload []byte, report func(GridTaskProgress)) ([]byte, error) {
		var j Job
		if err := json.Unmarshal(payload, &j); err != nil {
			return nil, fmt.Errorf("repro: decoding grid job: %w", err)
		}
		res, err := local.runLocalProgress(ctx, j, every, report)
		if err != nil {
			return nil, err
		}
		out, err := json.Marshal(res)
		if err != nil {
			return nil, fmt.Errorf("repro: encoding grid result for %s: %w", j.Label(), err)
		}
		return out, nil
	}
}

// transportFailedPrefix marks the one TaskResult error class that means
// "this peer died under us", not "this job failed": the client-side
// synthetic error for tasks left outstanding when a result stream dies
// (server crash, connection cut). Those — and nothing else — fail over
// to the next peer; a genuine execution error is the job's answer.
const transportFailedPrefix = "grid: result stream ended early"

// runGridBatch is RunBatch over the wire: resolve and validate each job
// locally (bad jobs fail fast without a round trip), submit the rest as
// one grid batch, and map the NDJSON result stream back onto
// JobResults. A peer that dies mid-batch has its unfinished jobs
// resubmitted to the next peer in order (the shared store makes
// anything it did finish a cache hit). Delivery follows the RunBatch
// contract: completion order, per-job errors in JobResult.Err,
// best-effort after cancellation.
func (r *Runner) runGridBatch(ctx context.Context, jobs []Job) <-chan JobResult {
	batch := make([]Job, len(jobs))
	copy(batch, jobs)
	out := make(chan JobResult)
	go func() {
		defer close(out)
		total := len(batch)
		// emit runs on this goroutine only, so the progress callback is
		// serialized and Done strictly increasing without a lock.
		done := 0
		emit := func(jr JobResult) {
			if r.progress != nil {
				done++
				r.progress(Progress{Done: done, Total: total, Job: jr.Job, Err: jr.Err})
			}
			select {
			case out <- jr:
			case <-ctx.Done():
				// Best-effort after cancellation, like the local pool.
			}
		}

		tasks := make([]grid.Task, 0, len(batch))
		taskIndex := make(map[string]int, len(batch))
		for i := range batch {
			batch[i] = r.withDefaults(batch[i])
			j := batch[i]
			if err := j.Validate(); err != nil {
				emit(JobResult{Index: i, Job: j, Err: err})
				continue
			}
			payload, err := json.Marshal(j)
			if err != nil {
				emit(JobResult{Index: i, Job: j, Err: fmt.Errorf("repro: encoding job %s: %w", j.Label(), err)})
				continue
			}
			id := strconv.Itoa(i)
			tasks = append(tasks, grid.Task{
				ID:       id,
				Hash:     grid.HashBytes(payload),
				Priority: r.gridPriority,
				Payload:  payload,
				Profile:  profileKey(j),
			})
			taskIndex[id] = i
		}
		if len(tasks) == 0 {
			return
		}
		r.submitGroup(ctx, gridPeers(r.grid), tasks, batch, taskIndex, emit)
	}()
	return out
}

// submitGroup submits a batch's tasks to the first peer in order,
// failing transport casualties over to the next. Each job is tried at
// most once per peer; when every peer has failed it, the last transport
// error is its result.
func (r *Runner) submitGroup(ctx context.Context, peers []string, tasks []grid.Task,
	batch []Job, taskIndex map[string]int, emit func(JobResult)) {
	remaining := tasks
	lastErr := ""
	for _, peer := range peers {
		if len(remaining) == 0 || ctx.Err() != nil {
			return
		}
		client := &grid.Client{Server: peer, ClientID: r.gridClientID,
			Backoff: r.gridBackoff, PeerSecret: r.gridSecret}
		var onProgress func(grid.TaskProgress)
		// The BatchHandle only exists once SubmitStream returns, but the
		// first progress event can beat it there; the buffered channel
		// hands the handle across, and the single stream-reading
		// goroutine that invokes onProgress caches it after one receive.
		handleCh := make(chan *grid.BatchHandle, 1)
		if r.gridProgress != nil {
			var handle *grid.BatchHandle
			onProgress = func(p grid.TaskProgress) {
				if handle == nil {
					handle = <-handleCh
				}
				i, ok := taskIndex[p.ID]
				if !ok {
					return
				}
				h, id := handle, p.ID
				stop := func() {
					// Bounded so a black-holed cancel POST cannot wedge the
					// caller (Stop is documented callable from the progress
					// callback, which runs on the stream-reading goroutine).
					sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
					defer scancel()
					h.Stop(sctx, id)
				}
				jp := JobProgress{
					Index:       i,
					Job:         batch[i],
					Uops:        p.Uops,
					Total:       p.Total,
					IntervalIPC: p.IntervalIPC,
					Rung:        p.Rung,
					Phase:       p.Phase,
					Worker:      p.Worker,
					BatchETA:    time.Duration(p.BatchEtaMS) * time.Millisecond,
					Stop:        stop,
				}
				r.gridProgress(jp)
			}
		}
		ch, handle, err := client.SubmitStream(ctx, remaining, onProgress)
		if err != nil {
			// The whole submission failed (peer unreachable): every job
			// moves to the next peer.
			lastErr = err.Error()
			continue
		}
		handleCh <- handle
		byID := make(map[string]grid.Task, len(remaining))
		for _, t := range remaining {
			byID[t.ID] = t
		}
		var failedOver []grid.Task
		for tr := range ch {
			i, ok := taskIndex[tr.ID]
			if !ok {
				continue
			}
			if strings.HasPrefix(tr.Err, transportFailedPrefix) {
				failedOver = append(failedOver, byID[tr.ID])
				lastErr = tr.Err
				continue
			}
			jr := JobResult{Index: i, Job: batch[i]}
			switch {
			case tr.Err == grid.TaskStoppedError:
				jr.Err = fmt.Errorf("repro: grid job %s: %w", batch[i].Label(), ErrJobStopped)
			case tr.Err != "":
				jr.Err = fmt.Errorf("repro: grid job %s: %s", batch[i].Label(), tr.Err)
			default:
				if err := json.Unmarshal(tr.Payload, &jr.Result); err != nil {
					jr.Err = fmt.Errorf("repro: decoding grid result for %s: %w", batch[i].Label(), err)
				}
			}
			emit(jr)
		}
		remaining = failedOver
	}
	if ctx.Err() != nil {
		return
	}
	for _, t := range remaining {
		i := taskIndex[t.ID]
		emit(JobResult{Index: i, Job: batch[i], Err: fmt.Errorf("repro: grid %s: %s", r.grid, lastErr)})
	}
}

// GridMetrics fetches the counter snapshot of the grid tier a Runner
// built WithGrid dispatches to: cache hits and misses from the
// content-addressed result store, queue depth, lease reassignments,
// live workers — plus the federation counters (steals, affinity hits,
// per-batch ETAs). With several peers the counters and gauges are
// summed across every reachable one (Peers is taken as the max — each
// member already counts the whole mesh) and the per-task/per-batch
// lists concatenated; it errors only when no peer answers, or on a
// Runner without a grid.
func (r *Runner) GridMetrics(ctx context.Context) (GridMetrics, error) {
	if r.grid == "" {
		return GridMetrics{}, fmt.Errorf("repro: runner has no grid (build it with WithGrid)")
	}
	var agg GridMetrics
	reached := 0
	var lastErr error
	for _, peer := range gridPeers(r.grid) {
		client := &grid.Client{Server: peer, PeerSecret: r.gridSecret}
		m, err := client.Metrics(ctx)
		if err != nil {
			lastErr = err
			continue
		}
		reached++
		agg.Submitted += m.Submitted
		agg.CacheHits += m.CacheHits
		agg.CacheMisses += m.CacheMisses
		agg.Coalesced += m.Coalesced
		agg.Completed += m.Completed
		agg.Failed += m.Failed
		agg.LeasePollEmpty += m.LeasePollEmpty
		agg.LeasesGranted += m.LeasesGranted
		agg.Reassigned += m.Reassigned
		agg.Abandoned += m.Abandoned
		agg.ProgressUpdates += m.ProgressUpdates
		agg.EarlyStopped += m.EarlyStopped
		agg.StealsOut += m.StealsOut
		agg.StealsIn += m.StealsIn
		agg.StealReturns += m.StealReturns
		agg.PeerAuthRejected += m.PeerAuthRejected
		agg.StorePutsDropped += m.StorePutsDropped
		agg.StoreRemoteHits += m.StoreRemoteHits
		agg.StoreReadRepairs += m.StoreReadRepairs
		// Configuration gauges, not counters: report the mesh's maximum
		// rather than a meaningless sum.
		if m.StoreReplication > agg.StoreReplication {
			agg.StoreReplication = m.StoreReplication
		}
		if m.StoreShardMembers > agg.StoreShardMembers {
			agg.StoreShardMembers = m.StoreShardMembers
		}
		agg.AffinityHits += m.AffinityHits
		agg.AffinityMisses += m.AffinityMisses
		agg.Rejected += m.Rejected
		agg.Overloaded += m.Overloaded
		agg.QueueDepth += m.QueueDepth
		agg.Leased += m.Leased
		agg.Workers += m.Workers
		agg.StoreEntries += m.StoreEntries
		if m.Peers > agg.Peers {
			agg.Peers = m.Peers
		}
		agg.Running = append(agg.Running, m.Running...)
		agg.Batches = append(agg.Batches, m.Batches...)
		for _, t := range m.Tenants {
			mergeTenant(&agg, t)
		}
		if lw := m.LeaseWaits; lw != nil {
			if agg.LeaseWaits == nil {
				agg.LeaseWaits = &grid.LatencySummary{}
			}
			// Count-weighted mean; the max of maxes.
			total := agg.LeaseWaits.Count + lw.Count
			if total > 0 {
				agg.LeaseWaits.MeanMS = (agg.LeaseWaits.MeanMS*float64(agg.LeaseWaits.Count) +
					lw.MeanMS*float64(lw.Count)) / float64(total)
			}
			agg.LeaseWaits.Count = total
			if lw.MaxMS > agg.LeaseWaits.MaxMS {
				agg.LeaseWaits.MaxMS = lw.MaxMS
			}
		}
		if t := m.Trace; t != nil {
			if agg.Trace == nil {
				agg.Trace = &grid.TraceStats{}
			}
			agg.Trace.Events += t.Events
			agg.Trace.Capacity += t.Capacity
			agg.Trace.Total += t.Total
			agg.Trace.SpillDropped += t.SpillDropped
		}
		if a := m.Autoscaler; a != nil {
			if agg.Autoscaler == nil {
				agg.Autoscaler = &grid.AutoscaleStats{}
			}
			agg.Autoscaler.ScaleUps += a.ScaleUps
			agg.Autoscaler.ScaleDowns += a.ScaleDowns
			agg.Autoscaler.Workers += a.Workers
			agg.Autoscaler.Target += a.Target
		}
	}
	if reached == 0 {
		return GridMetrics{}, fmt.Errorf("repro: no grid peer reachable: %w", lastErr)
	}
	sort.Slice(agg.Tenants, func(i, j int) bool { return agg.Tenants[i].ID < agg.Tenants[j].ID })
	return agg, nil
}

// mergeTenant folds one peer's per-tenant counters into the aggregate
// by tenant ID (the weight is taken from whichever peer reported it;
// a well-configured federation gives every peer the same table).
func mergeTenant(agg *GridMetrics, t grid.TenantMetrics) {
	for i := range agg.Tenants {
		if agg.Tenants[i].ID == t.ID {
			agg.Tenants[i].Admitted += t.Admitted
			agg.Tenants[i].RejectedRate += t.RejectedRate
			agg.Tenants[i].RejectedQuota += t.RejectedQuota
			agg.Tenants[i].Queued += t.Queued
			agg.Tenants[i].Running += t.Running
			agg.Tenants[i].PendingBytes += t.PendingBytes
			agg.Tenants[i].Completed += t.Completed
			agg.Tenants[i].Failed += t.Failed
			return
		}
	}
	agg.Tenants = append(agg.Tenants, t)
}

// GridMetrics is the grid server's counter snapshot (see the field docs
// on the underlying type).
type GridMetrics = grid.Metrics
