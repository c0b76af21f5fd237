// Package grid is the distributed simulation fabric: a job server that
// shards simulation batches over process-separated workers, with a
// content-addressed result store in front of the queue so repeated sweep
// points are served from cache instead of re-simulated.
//
// The package is deliberately payload-agnostic — jobs and results travel
// as opaque JSON blobs keyed by a caller-supplied content hash — so it
// carries the public repro.Job/Result wire forms without importing them
// (the root package imports grid for its WithGrid dispatch, not the other
// way around). The three roles:
//
//   - Server: accepts Task batches over HTTP (POST /v1/batch), answers
//     cache hits immediately, queues the rest by priority, leases queued
//     tasks to polling workers with heartbeat-renewed deadlines (a worker
//     that dies mid-task loses its lease and the task is reassigned), and
//     streams TaskResults back to the submitting client as NDJSON.
//     Client disconnect cancels the batch: queued tasks are dropped and
//     leased ones are cancelled at the worker's next heartbeat.
//   - Worker: pulls leases (long-poll POST /v1/lease), runs each payload
//     through its ExecFunc on a bounded local pool, posts completions
//     (POST /v1/complete) and heartbeats (POST /v1/heartbeat) that renew
//     leases and report load so the server can balance shards.
//   - Client: submits a batch and decodes the NDJSON result stream.
//
// Identical tasks are deduplicated at every layer: a hash already in the
// store is a cache hit, a hash already queued or leased is coalesced onto
// the in-flight task, and every subscriber receives its own copy of the
// single result.
package grid

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
)

// Task is one unit of work: an opaque payload with a batch-scoped ID and
// a content hash. The hash is the cache key — callers must derive it from
// a canonical encoding of the payload (repro jobs use Job.Hash); when it
// is empty the server hashes the raw payload bytes as a fallback.
type Task struct {
	// ID names the task within its batch; results echo it. IDs need only
	// be unique per batch (the repro dispatcher uses the job index).
	ID string `json:"id"`
	// Hash is the content address, "sha256:<hex>".
	Hash string `json:"hash,omitempty"`
	// Priority orders the queue: higher runs first, ties FIFO.
	Priority int `json:"priority,omitempty"`
	// Payload is the job encoding, executed verbatim by a worker's Exec.
	Payload json.RawMessage `json:"payload"`
	// Attempt is the lease generation, stamped by the server at grant
	// time and echoed back on completion. It lets the server tell a
	// current execution's report from a superseded one: a worker whose
	// lease expired and was re-granted — possibly to the same worker —
	// aborts the old attempt with a context error, and that abort must
	// not fail the attempt now running. Clients leave it zero.
	Attempt int `json:"attempt,omitempty"`
	// Profile is an optional locality key: jobs sharing expensive warm
	// state (the repro dispatcher hashes workload+config) carry the same
	// profile, and the server prefers granting a task to a worker that
	// recently ran its profile (affinity scheduling). Empty opts out.
	Profile string `json:"profile,omitempty"`
	// Hops counts how many times the task has been stolen between
	// federated servers; a server refuses to let peers steal a task at
	// its max-hop bound, so work cannot ping-pong around a federation.
	Hops int `json:"hops,omitempty"`
}

// TaskResult is one streamed batch outcome — or, when Progress is set,
// an interim progress event for a task that is still running (only sent
// on streams that requested progress; every other field except ID and
// Hash is empty on such lines).
type TaskResult struct {
	// ID is the submitting batch's task ID.
	ID string `json:"id"`
	// Hash echoes the task's content address.
	Hash string `json:"hash,omitempty"`
	// Cached reports that the result was served from the content-addressed
	// store without running.
	Cached bool `json:"cached,omitempty"`
	// Payload is the result encoding produced by the worker's Exec; nil
	// when Err is set.
	Payload json.RawMessage `json:"payload,omitempty"`
	// Err is the execution failure, empty on success.
	Err string `json:"error,omitempty"`
	// Progress marks this line as an interval progress event, not a
	// final result; the task will still deliver exactly one final line.
	Progress *TaskProgress `json:"progress,omitempty"`
}

// TaskProgress is one interval-granular snapshot of a running task,
// published by its worker over heartbeats and fanned out to subscribed
// batch streams and /metrics. Progress is best-effort and lossy by
// design: snapshots may be dropped or arrive coarser than the execution
// reported them, and only the latest one per task is retained.
type TaskProgress struct {
	// ID is the task being reported: the server-side task ID on the
	// heartbeat leg and in /metrics, the batch's own job ID on a batch
	// stream.
	ID string `json:"id"`
	// Hash is the task's content address.
	Hash string `json:"hash,omitempty"`
	// Uops is the committed-uop count of the measured phase so far;
	// Total is the job's full budget (0 when the execution doesn't know).
	Uops  uint64 `json:"uops"`
	Total uint64 `json:"total,omitempty"`
	// IntervalIPC is the IPC of the most recent feedback interval.
	IntervalIPC float64 `json:"interval_ipc,omitempty"`
	// Rung names the steering feature set governing the interval.
	Rung string `json:"rung,omitempty"`
	// Phase is the interval's program-phase ID, -1 when the execution
	// has no phase detector (static policies).
	Phase int `json:"phase"`
	// Worker names the reporting worker.
	Worker string `json:"worker,omitempty"`
	// BatchEtaMS is the server's rough estimate, stamped when the event
	// is fanned to a batch stream, of how many milliseconds remain until
	// the whole batch finishes (0 when the server cannot estimate yet).
	BatchEtaMS int64 `json:"batch_eta_ms,omitempty"`
}

// TaskStoppedError is the Err string of a final TaskResult synthesized
// for a job its own batch stopped early via the cancel endpoint (clients
// map it onto their early-stop sentinel).
const TaskStoppedError = "grid: job stopped by client"

// ExecFunc runs one task payload to a result payload. It must honour ctx:
// the worker cancels it when the server reports the task cancelled (its
// batch client disconnected or stopped the job early) or the lease went
// stale.
type ExecFunc func(ctx context.Context, payload []byte) ([]byte, error)

// ProgressExecFunc is an ExecFunc that additionally reports interval
// progress through report. The worker overwrites ID, Hash and Worker on
// every snapshot, so executions only fill the measurement fields. report
// must not be called after the function returns.
type ProgressExecFunc func(ctx context.Context, payload []byte, report func(TaskProgress)) ([]byte, error)

// The wire protocol paths. Everything is HTTP/JSON; /v1/batch responds
// with an NDJSON stream and the /v1/store payload legs carry raw bytes.
const (
	pathBatch     = "/v1/batch"
	pathLease     = "/v1/lease"
	pathHeartbeat = "/v1/heartbeat"
	pathComplete  = "/v1/complete"
	pathCancel    = "/v1/cancel"
	pathMetrics   = "/metrics"
	// pathMetricsProm serves the same counters in Prometheus text
	// exposition form (also reachable via Accept: text/plain or
	// ?format=prom on /metrics).
	pathMetricsProm = "/metrics/prom"
	pathHealthz     = "/healthz"
	// The shared cache tier: a server exposes its local Storage over
	// HTTP so the ShardedStores of its peers can read and replicate the
	// hashes it owns.
	pathStoreGet = "/v1/store/get"
	pathStorePut = "/v1/store/put"
	// The peer protocol (see Federation): membership announcements,
	// status snapshots for steal decisions, and work stealing itself.
	pathPeerAnnounce = "/v1/peer/announce"
	pathPeerStatus   = "/v1/peer/status"
	pathPeerSteal    = "/v1/peer/steal"
	// pathPeerRelease returns a stolen lease whose loopback handoff on the
	// thief failed, so the victim can requeue immediately instead of
	// waiting out the lease TTL.
	pathPeerRelease = "/v1/peer/release"
	// The observability surface: /v1/trace serves the tracer's ring
	// (events of one trace/task/batch with ?id=, recent summaries
	// without), /dashboard the self-contained live HTML dashboard.
	pathTrace     = "/v1/trace"
	pathDashboard = "/dashboard"
)

// PeerWorkerPrefix marks lease-protocol worker names that are actually
// federated peers stealing work ("peer:<base URL>"). Peer holders are
// excluded from the Workers gauge, which keeps meaning simulation
// workers.
const PeerWorkerPrefix = "peer:"

// announceRequest is a federation membership beacon: the sender's
// advertised base URL. The response returns every peer the receiver
// knows, so static -peers seeds gossip into a full mesh.
type announceRequest struct {
	Peer string `json:"peer"`
}

type announceResponse struct {
	Peers []string `json:"peers,omitempty"`
}

// stealRequest asks a loaded server to hand over queued tasks: the
// thief identifies itself by base URL and caps how many tasks it can
// absorb. The victim answers with regular lease grants (attempt tokens
// and all) under the worker name "peer:<url>", so the stolen work rides
// the exact same exactly-once discipline as a local lease.
type stealRequest struct {
	Peer string `json:"peer"`
	Max  int    `json:"max"`
}

// releaseRequest hands a stolen lease back: the thief's loopback batch
// was never admitted (its own server died or refused the work), so it
// returns the task — identified by ID and the attempt token from the
// steal grant, the same discipline /v1/complete uses — and the victim
// requeues it immediately rather than stranding it until lease expiry.
type releaseRequest struct {
	Peer    string `json:"peer"`
	ID      string `json:"id"`
	Attempt int    `json:"attempt"`
}

type releaseResponse struct {
	// Released reports that the task was still leased to this peer at
	// this attempt and went back on the queue; false means the release
	// was stale (expired, reassigned, or already finished) and nothing
	// happened.
	Released bool `json:"released,omitempty"`
}

// PeerStatus is one federated server's load snapshot, served on
// /v1/peer/status and consumed by peers deciding where to steal from
// (and by `helperd federate` for operators).
type PeerStatus struct {
	Self         string `json:"self,omitempty"`
	QueueDepth   int    `json:"queue_depth"`
	Stealable    int    `json:"stealable"`
	Leased       int    `json:"leased"`
	Workers      int    `json:"workers"`
	FreeCapacity int    `json:"free_capacity"`
	StoreEntries int    `json:"store_entries"`
	StealsOut    uint64 `json:"steals_out"`
	StealsIn     uint64 `json:"steals_in"`
	// WorstEtaMS is the largest projected time-to-finish, in
	// milliseconds, over this server's connected batches that still have
	// queued work — the published BatchETA of the batch that will finish
	// last. Thieves prefer the victim with the worst ETA, so stealing
	// shortens the federation's critical path instead of just draining
	// the deepest queue. Zero when no ETA can be projected yet.
	WorstEtaMS int64    `json:"worst_eta_ms,omitempty"`
	Peers      []string `json:"peers,omitempty"`
}

// batchHeader is the response header carrying the server-assigned batch
// ID of a /v1/batch stream; /v1/cancel addresses jobs through it.
const batchHeader = "X-Grid-Batch"

type batchRequest struct {
	Jobs []Task `json:"jobs"`
	// Progress subscribes the stream to interval progress events for its
	// jobs (TaskResult lines with Progress set, interleaved best-effort
	// with final results).
	Progress bool `json:"progress,omitempty"`
}

// cancelRequest stops individual jobs of a live batch early: the batch's
// subscriptions to them are dropped (each answered by a final stopped
// result on the stream) and tasks left with no subscribers are cancelled
// at their worker, exactly like a full client disconnect.
type cancelRequest struct {
	// Batch is the stream's server-assigned ID (the batchHeader value).
	Batch string `json:"batch"`
	// IDs are the batch's own job IDs to stop.
	IDs []string `json:"ids"`
}

type cancelResponse struct {
	// Stopped counts the jobs actually unsubscribed (unknown or already
	// finished IDs are skipped).
	Stopped int `json:"stopped"`
}

type leaseRequest struct {
	// Worker names the polling worker (heartbeats and completions must
	// use the same name).
	Worker string `json:"worker"`
	// Capacity and InFlight are the worker's /healthz-style load report:
	// the server grants at most Capacity-InFlight tasks, so a loaded
	// worker never hoards leases another shard could run.
	Capacity int `json:"capacity"`
	InFlight int `json:"in_flight"`
	// WaitMS long-polls: the server holds the request up to this long
	// waiting for work before answering empty.
	WaitMS int `json:"wait_ms,omitempty"`
}

type leaseResponse struct {
	Tasks []Task `json:"tasks,omitempty"`
	// LeaseMS is the lease TTL; the worker must heartbeat well within it.
	LeaseMS int64 `json:"lease_ms"`
}

type heartbeatRequest struct {
	Worker string `json:"worker"`
	// Tasks are the task IDs the worker currently holds.
	Tasks    []string `json:"tasks,omitempty"`
	InFlight int      `json:"in_flight"`
	// Progress carries the latest interval snapshot of each in-flight
	// task that reported one since the previous beat.
	Progress []TaskProgress `json:"progress,omitempty"`
}

type heartbeatResponse struct {
	// Cancelled lists held tasks whose every subscriber disconnected; the
	// worker should abort them.
	Cancelled []string `json:"cancelled,omitempty"`
	// Stale lists held tasks the server no longer considers leased to this
	// worker (the lease expired and was reassigned); abort them too.
	Stale []string `json:"stale,omitempty"`
}

type completeRequest struct {
	Worker string `json:"worker"`
	ID     string `json:"id"`
	Hash   string `json:"hash,omitempty"`
	// Attempt echoes the lease generation of the Task being reported.
	Attempt int             `json:"attempt,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Err     string          `json:"error,omitempty"`
}

type completeResponse struct {
	// Stale reports that the completion arrived for a lease the server had
	// already expired or a task already finished elsewhere; the work is
	// banked in the store when successful, but nothing else happened.
	Stale bool `json:"stale,omitempty"`
}

// HashBytes returns the content address of a raw payload: "sha256:<hex>"
// over the bytes as given. Callers with a canonical encoding (the repro
// Job JSON) should hash that; this is the shared primitive.
func HashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// BaseURL normalizes a server address to a base URL: ":8321" and
// "host:8321" gain the http scheme (bare ports bind to localhost), full
// URLs pass through with any trailing slash trimmed.
func BaseURL(addr string) string {
	addr = strings.TrimRight(strings.TrimSpace(addr), "/")
	if addr == "" {
		return addr
	}
	if strings.Contains(addr, "://") {
		return addr
	}
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
	}
	return "http://" + addr
}
