package grid

import (
	"bufio"
	"bytes"
	"container/heap"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metrics is the server's counter snapshot, served as JSON on /metrics.
type Metrics struct {
	// Submitted counts jobs accepted across all batches; each is exactly
	// one of CacheHits (served from the store), Coalesced (joined a task
	// already in flight, or a within-batch duplicate of another job's
	// hash) or CacheMisses (created a new task). One rare admission race
	// — a job's store miss landing just as another batch queues the same
	// hash — counts a job as both a miss and a coalesce.
	Submitted   uint64 `json:"submitted"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Coalesced   uint64 `json:"coalesced"`
	// Completed/Failed count task executions reported by workers (cache
	// hits never reach either).
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	// LeasePollEmpty counts lease polls answered with zero tasks (the
	// long poll timed out or the server closed before work arrived) —
	// the idle side of the lease-wait histogram, which only sees grants.
	LeasePollEmpty uint64 `json:"lease_poll_empty"`
	// LeasesGranted counts tasks handed to workers; Reassigned counts
	// leases that expired without a heartbeat and went back to the queue
	// (worker death recovery); Abandoned counts tasks dropped because
	// every subscriber went away — a disconnected batch client, or an
	// explicit early stop (those are additionally counted in
	// EarlyStopped).
	LeasesGranted uint64 `json:"leases_granted"`
	Reassigned    uint64 `json:"reassigned"`
	Abandoned     uint64 `json:"abandoned"`
	// ProgressUpdates counts interval progress snapshots accepted from
	// worker heartbeats; EarlyStopped counts jobs clients stopped early
	// through the cancel endpoint.
	ProgressUpdates uint64 `json:"progress_updates"`
	EarlyStopped    uint64 `json:"early_stopped"`
	// Federation counters: StealsOut counts tasks peers stole from this
	// server's queue, StealsIn counts tasks this server's federation
	// stole from peers and ran locally.
	StealsOut uint64 `json:"steals_out"`
	StealsIn  uint64 `json:"steals_in"`
	// StealReturns counts stolen leases handed back through the peer
	// release endpoint — the thief's loopback handoff failed and the
	// task went straight back on this server's queue instead of waiting
	// out its lease TTL.
	StealReturns uint64 `json:"steal_returns"`
	// PeerAuthRejected counts requests to the authenticated peer seam
	// (announce/status/steal/release and the /v1/store endpoints)
	// refused 403: missing, malformed, stale or mismatched
	// X-Grid-Peer-Auth signatures.
	PeerAuthRejected uint64 `json:"peer_auth_rejected"`
	// Affinity scheduling outcomes, counted only for profiled tasks: a
	// hit is a lease granted to a worker that recently ran the task's
	// profile (its caches are warm), a miss is any other profiled grant.
	AffinityHits   uint64 `json:"affinity_hits"`
	AffinityMisses uint64 `json:"affinity_misses"`
	// Point-in-time gauges. Workers counts simulation workers only
	// (federated peers holding stolen leases are excluded); Peers is the
	// known federation peer count, 0 on an unfederated server.
	QueueDepth   int `json:"queue_depth"`
	Leased       int `json:"leased"`
	Workers      int `json:"workers"`
	Peers        int `json:"peers"`
	StoreEntries int `json:"store_entries"`
	// Federated store tier counters, all zero on a purely local store.
	// StorePutsDropped counts background replica/remote Puts shed
	// because a peer was down or its bounded put queue overflowed (the
	// local copy is unaffected); StoreRemoteHits counts Gets answered by
	// a shard peer after a local miss; StoreReadRepairs counts the
	// re-replications those remote hits triggered. StoreReplication and
	// StoreShardMembers gauge the sharded store's configuration and live
	// membership.
	StorePutsDropped  uint64 `json:"store_puts_dropped,omitempty"`
	StoreRemoteHits   uint64 `json:"store_remote_hits,omitempty"`
	StoreReadRepairs  uint64 `json:"store_read_repairs,omitempty"`
	StoreReplication  int    `json:"store_replication,omitempty"`
	StoreShardMembers int    `json:"store_shard_members,omitempty"`
	// Running is the latest interval progress snapshot of each leased
	// task that has reported one (IDs are server-side task IDs).
	Running []TaskProgress `json:"running,omitempty"`
	// Batches is the progress-driven ETA of every connected batch
	// stream, coarsest first (see BatchETA).
	Batches []BatchETA `json:"batches,omitempty"`
	// Stages summarizes the per-stage job latencies (stageOrder keys:
	// admission, first_progress, exec, e2e); the full histograms are on
	// the Prometheus endpoint as grid_stage_ms.
	Stages map[string]LatencySummary `json:"stages,omitempty"`
	// LeaseWaits summarizes queue latency — enqueue (or requeue) to
	// lease grant — of every grant so far; the full histogram is on the
	// Prometheus endpoint.
	LeaseWaits *LatencySummary `json:"lease_waits,omitempty"`
	// Trace is the tracer's ring occupancy when tracing is enabled.
	Trace *TraceStats `json:"trace,omitempty"`
}

// LatencySummary is the JSON face of the lease-wait histogram.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// latencyBucketsMS are the upper bounds (milliseconds) of the lease-wait
// histogram exported in Prometheus text form; the implicit +Inf bucket
// follows.
var latencyBucketsMS = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// BatchETA is the server's live estimate for one connected batch
// stream: how many of its jobs are still pending (split into queued and
// running) and roughly how long until the whole batch finishes. The
// estimate leans on worker progress snapshots for running tasks and on
// an EWMA of completed task durations for queued ones; it is operator
// guidance, not a promise.
type BatchETA struct {
	ID      string `json:"id"`
	Pending int    `json:"pending"`
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
	EtaMS   int64  `json:"eta_ms"`
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithLeaseTTL sets how long a granted lease survives without a
// heartbeat before the task is reassigned. The default is 5s; tests use
// short TTLs to exercise reassignment quickly.
func WithLeaseTTL(d time.Duration) ServerOption {
	return func(s *Server) {
		if d > 0 {
			s.leaseTTL = d
		}
	}
}

// WithMaxAttempts bounds how many times a task may be leased before the
// server gives up and fails it (defence against a job that kills every
// worker it lands on). The default is 5.
func WithMaxAttempts(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.maxAttempts = n
		}
	}
}

// WithStorage plugs a result store into the server: the in-memory
// default forgets on restart, an OpenDiskStore-backed one makes the
// cache durable (restart the server on the same directory and every
// already-simulated point is a hit), and a ShardedStore spreads the
// cache over the federation (the shared store tier). The server does
// not close the store; the caller owns its lifecycle.
func WithStorage(st Storage) ServerOption {
	return func(s *Server) {
		if st != nil {
			s.store = st
		}
	}
}

// WithMaxHops bounds how many times federated peers may steal one task
// from each other (Task.Hops): a task at the bound is no longer
// stealable and must run where it sits. The default is 2; work stealing
// balances load in one or two moves, anything more is ping-pong.
func WithMaxHops(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.maxHops = n
		}
	}
}

// WithLogger attaches a structured logger: peer-auth refusals, lease
// reassignments and task failures are logged at the levels an operator
// would expect (warn for refusals and reassignments, error for
// failures). The default is no logging — the
// embedded in-process grids (tests, `sweep -grid :0`) stay quiet.
func WithLogger(l *slog.Logger) ServerOption {
	return func(s *Server) { s.log = l }
}

// WithTrace sizes the server's lifecycle trace ring (see Tracer). The
// default is DefaultTraceCapacity; n < 0 disables tracing entirely
// (recording is allocation-free either way, but a disabled tracer is a
// nil-check and nothing else).
func WithTrace(n int) ServerOption {
	return func(s *Server) { s.traceCap = n }
}

// WithTraceSpill streams every trace event to w as NDJSON (helperd
// points this next to the DiskStore dir). The writer outlives the
// server; Close flushes what is buffered.
func WithTraceSpill(w io.Writer) ServerOption {
	return func(s *Server) { s.traceSpill = w }
}

// WithPeerSecret arms shared-secret authentication on the peer seam:
// every request to the peer protocol (announce/status/steal/release)
// and the /v1/store endpoints must carry a valid X-Grid-Peer-Auth HMAC
// (see PeerAuthHeader) or is rejected 403 and counted. The attached
// Federation signs its outbound peer traffic with the same secret. An
// empty secret leaves the seam open (the pre-auth behaviour). The
// client and worker endpoints are never gated — they face the
// operator's own tools, not other servers.
func WithPeerSecret(secret string) ServerOption {
	return func(s *Server) { s.peerSecret = secret }
}

// Server is the grid job server: an http.Handler exposing the batch,
// lease, heartbeat, complete, metrics and healthz endpoints over one
// priority work queue and one content-addressed result store. Close
// stops the lease reaper; in-flight batch handlers unwind promptly.
type Server struct {
	leaseTTL    time.Duration
	maxAttempts int
	maxHops     int
	log         *slog.Logger
	traceCap    int
	traceSpill  io.Writer
	// peerSecret arms peer-seam authentication (see WithPeerSecret);
	// empty means open. Written only by options, read-only afterwards.
	peerSecret string
	// tracer records lifecycle span events; set once in NewServer (nil
	// when disabled) and safe to use without s.mu — its own mutex is a
	// leaf lock, taken under s.mu but never the other way around.
	tracer *Tracer

	mu     sync.Mutex
	store  Storage
	byID   map[string]*task
	byHash map[string]*task
	queue  taskHeap
	seq    uint64
	// wake is closed and replaced whenever work is queued, releasing
	// long-polling lease requests.
	wake    chan struct{}
	workers map[string]*workerState
	// batches tracks connected /v1/batch streams by server-assigned ID,
	// the namespace /v1/cancel addresses early stops through.
	batches  map[string]*batch
	batchSeq uint64
	// avgTaskDur is an EWMA of completed task wall durations (first
	// lease to completion), the fleet-typical time that calibrates batch
	// ETAs. Zero until the first completion.
	avgTaskDur time.Duration

	submitted, coalesced      uint64
	completed, failed         uint64
	leasesGranted, reassigned uint64
	abandoned                 uint64
	progressUpdates           uint64
	earlyStopped              uint64
	stealsOut, stealsIn       uint64
	stealReturns              uint64
	affinityHits              uint64
	affinityMisses            uint64
	// Lease-wait histogram: time from (re)enqueue to grant, in the
	// latencyBucketsMS buckets plus +Inf, with sum/count/max for the
	// JSON summary.
	latBuckets [14]uint64
	latSumMS   float64
	latMaxMS   float64
	latCount   uint64
	// leasePollEmpty counts lease polls answered without work. Atomic
	// because the empty answer is decided after s.mu is released.
	leasePollEmpty atomic.Uint64
	// authRejects counts 403s from the peer-auth gate. Atomic because
	// rejections happen before any handler takes s.mu.
	authRejects atomic.Uint64
	// stageHists are the per-stage latency histograms (stageOrder names
	// the stages) behind grid_stage_ms and Metrics.Stages.
	stageHists map[string]*stageHist
	// peerCount mirrors the attached Federation's live peer set size for
	// the Peers gauge (SetPeerCount).
	peerCount  int
	closed     chan struct{}
	closeOnce  sync.Once
	reaperDone chan struct{}
}

// workerState is the server's view of one polling worker, fed by its
// lease and heartbeat load reports.
type workerState struct {
	lastSeen time.Time
	capacity int
	inFlight int
	// profiles is the worker's recent locality history, most recent
	// last: the profile keys of its latest lease grants, consulted by
	// affinity scheduling so recurring jobs land where their caches
	// (trace windows, predictor state, OS page cache) are warm.
	profiles []string
}

// affinityHistory bounds a worker's remembered profile keys.
const affinityHistory = 8

// sawProfile reports whether the worker recently ran profile.
func (w *workerState) sawProfile(profile string) bool {
	for _, p := range w.profiles {
		if p == profile {
			return true
		}
	}
	return false
}

// noteProfile records a grant's profile in the worker's history.
func (w *workerState) noteProfile(profile string) {
	if profile == "" {
		return
	}
	for i, p := range w.profiles {
		if p == profile {
			// Refresh recency instead of duplicating.
			w.profiles = append(append(w.profiles[:i], w.profiles[i+1:]...), profile)
			return
		}
	}
	w.profiles = append(w.profiles, profile)
	if len(w.profiles) > affinityHistory {
		w.profiles = w.profiles[len(w.profiles)-affinityHistory:]
	}
}

// NewServer builds a Server and starts its lease reaper. Call Close when
// done with it.
func NewServer(opts ...ServerOption) *Server {
	s := &Server{
		leaseTTL:    5 * time.Second,
		maxAttempts: 5,
		maxHops:     2,
		store:       NewStore(),
		byID:        map[string]*task{},
		byHash:      map[string]*task{},
		wake:        make(chan struct{}),
		workers:     map[string]*workerState{},
		batches:     map[string]*batch{},
		stageHists:  map[string]*stageHist{},
		closed:      make(chan struct{}),
		reaperDone:  make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	if s.traceCap >= 0 {
		s.tracer = NewTracer(s.traceCap)
		if s.traceSpill != nil {
			s.tracer.SetSpill(s.traceSpill)
		}
	}
	go s.reap()
	return s
}

// Close stops the reaper and releases every blocked handler. It is
// idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.closed) })
	<-s.reaperDone
	s.tracer.Close()
}

// Tracer exposes the lifecycle trace ring (nil when disabled).
func (s *Server) Tracer() *Tracer { return s.tracer }

// The span-tree stage names of the stage latency histograms:
// admission (batch arrival to enqueue, store lookup included), queue
// wait lives in the lease-wait histogram, first_progress (lease to the
// first interval snapshot), exec (last lease to completion) and e2e
// (batch arrival to completion).
var stageOrder = []string{"admission", "first_progress", "exec", "e2e"}

// stageHist is one per-stage latency histogram, sharing the lease-wait
// bucket bounds. Mutated under s.mu.
type stageHist struct {
	buckets [14]uint64
	sumMS   float64
	maxMS   float64
	count   uint64
}

func (h *stageHist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	ms := float64(d) / float64(time.Millisecond)
	i := 0
	for i < len(latencyBucketsMS) && ms > latencyBucketsMS[i] {
		i++
	}
	h.buckets[i]++
	h.sumMS += ms
	h.count++
	if ms > h.maxMS {
		h.maxMS = ms
	}
}

func (h *stageHist) summary() LatencySummary {
	return LatencySummary{Count: h.count, MeanMS: h.sumMS / float64(h.count), MaxMS: h.maxMS}
}

// observeStageLocked folds one stage latency into its histogram.
func (s *Server) observeStageLocked(stage string, d time.Duration) {
	h := s.stageHists[stage]
	if h == nil {
		h = &stageHist{}
		s.stageHists[stage] = h
	}
	h.observe(d)
}

// Store exposes the content-addressed result store (tests and embedders
// may pre-seed or inspect it).
func (s *Server) Store() Storage { return s.store }

// Metrics returns a counter snapshot.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metricsLocked()
}

func (s *Server) metricsLocked() Metrics {
	entries, hits, misses := s.store.Stats()
	m := Metrics{
		Submitted:       s.submitted,
		CacheHits:       hits,
		CacheMisses:     misses,
		Coalesced:       s.coalesced,
		Completed:       s.completed,
		Failed:          s.failed,
		LeasePollEmpty:  s.leasePollEmpty.Load(),
		LeasesGranted:   s.leasesGranted,
		Reassigned:      s.reassigned,
		Abandoned:       s.abandoned,
		ProgressUpdates: s.progressUpdates,
		EarlyStopped:    s.earlyStopped,
		StealsOut:       s.stealsOut,
		StealsIn:        s.stealsIn,
		AffinityHits:    s.affinityHits,
		AffinityMisses:  s.affinityMisses,
		Peers:           s.peerCount,
		StoreEntries:    entries,
		StealReturns:    s.stealReturns,
	}
	m.PeerAuthRejected = s.authRejects.Load()
	if dp, ok := s.store.(interface{ DroppedPuts() uint64 }); ok {
		m.StorePutsDropped = dp.DroppedPuts()
	}
	if ss, ok := s.store.(*ShardedStore); ok {
		sh := ss.ShardStats()
		m.StoreRemoteHits = sh.RemoteHits
		m.StoreReadRepairs = sh.ReadRepairs
		m.StoreReplication = sh.Replication
		m.StoreShardMembers = sh.Members
	}
	for _, t := range s.byID {
		if t.worker != "" {
			m.Leased++
			if t.progress != nil {
				m.Running = append(m.Running, *t.progress)
			}
		} else if !t.cancelled {
			m.QueueDepth++
		}
	}
	if len(s.stageHists) > 0 {
		m.Stages = make(map[string]LatencySummary, len(s.stageHists))
		for stage, h := range s.stageHists {
			m.Stages[stage] = h.summary()
		}
	}
	if s.latCount > 0 {
		m.LeaseWaits = &LatencySummary{
			Count:  s.latCount,
			MeanMS: s.latSumMS / float64(s.latCount),
			MaxMS:  s.latMaxMS,
		}
	}
	if s.tracer != nil {
		st := s.tracer.Stats()
		m.Trace = &st
	}
	// Task IDs are "t<seq>": order by the numeric suffix so t2 precedes
	// t10 (creation order), falling back to lexicographic for any ID a
	// future format produces.
	sort.Slice(m.Running, func(i, j int) bool {
		a, aerr := strconv.Atoi(strings.TrimPrefix(m.Running[i].ID, "t"))
		b, berr := strconv.Atoi(strings.TrimPrefix(m.Running[j].ID, "t"))
		if aerr == nil && berr == nil {
			return a < b
		}
		return m.Running[i].ID < m.Running[j].ID
	})
	now := time.Now()
	cutoff := now.Add(-3 * s.leaseTTL)
	for name, w := range s.workers {
		if w.lastSeen.After(cutoff) && !strings.HasPrefix(name, PeerWorkerPrefix) {
			m.Workers++
		}
	}
	for id := range s.batches {
		m.Batches = append(m.Batches, s.batchEtaLocked(s.batches[id], now))
	}
	sort.Slice(m.Batches, func(i, j int) bool { return m.Batches[i].ID < m.Batches[j].ID })
	return m
}

// batchEtaLocked estimates one connected batch's remaining wall time:
// the slowest running task's projected remainder (from its progress
// snapshots, or the fleet EWMA when it has not reported yet), and —
// when jobs are still queued — however many fleet-capacity waves of the
// EWMA duration the queue backlog amounts to, whichever is larger.
func (s *Server) batchEtaLocked(b *batch, now time.Time) BatchETA {
	eta := BatchETA{ID: b.id}
	avg := s.avgTaskDur
	var longest time.Duration
	for _, t := range s.byID {
		subscribed := false
		for _, sub := range t.subs {
			if sub.batch == b {
				subscribed = true
				break
			}
		}
		if !subscribed {
			continue
		}
		eta.Pending++
		if t.worker == "" {
			eta.Queued++
			continue
		}
		eta.Running++
		remaining := avg - now.Sub(t.leasedAt)
		if p := t.progress; p != nil && p.Total > 0 && p.Uops > 0 {
			elapsed := now.Sub(t.leasedAt)
			if elapsed > 0 {
				frac := float64(p.Uops) / float64(p.Total)
				remaining = time.Duration(float64(elapsed) * (1 - frac) / frac)
			}
		}
		if remaining > longest {
			longest = remaining
		}
	}
	if eta.Queued > 0 && avg > 0 {
		capacity := s.fleetCapacityLocked()
		if capacity < 1 {
			capacity = 1
		}
		waves := (eta.Queued + capacity - 1) / capacity
		if queueEta := avg + time.Duration(waves)*avg; queueEta > longest {
			longest = queueEta
		}
	}
	eta.EtaMS = longest.Milliseconds()
	if eta.EtaMS < 0 {
		eta.EtaMS = 0
	}
	return eta
}

// fleetCapacityLocked sums the reported capacity of live simulation
// workers; freeCapacityLocked the slots they are not using. Peer holders
// never report capacity, so both naturally exclude them.
func (s *Server) fleetCapacityLocked() int {
	total := 0
	cutoff := time.Now().Add(-3 * s.leaseTTL)
	for _, w := range s.workers {
		if w.lastSeen.After(cutoff) {
			total += w.capacity
		}
	}
	return total
}

func (s *Server) freeCapacityLocked() int {
	free := 0
	cutoff := time.Now().Add(-3 * s.leaseTTL)
	for _, w := range s.workers {
		if w.lastSeen.After(cutoff) && w.capacity > w.inFlight {
			free += w.capacity - w.inFlight
		}
	}
	return free
}

// recordLeaseWaitLocked folds one enqueue-to-grant wait into the lease
// latency histogram.
func (s *Server) recordLeaseWaitLocked(wait time.Duration) {
	if wait < 0 {
		wait = 0
	}
	ms := float64(wait) / float64(time.Millisecond)
	i := 0
	for i < len(latencyBucketsMS) && ms > latencyBucketsMS[i] {
		i++
	}
	s.latBuckets[i]++
	s.latSumMS += ms
	s.latCount++
	if ms > s.latMaxMS {
		s.latMaxMS = ms
	}
}

// SetPeerCount mirrors the attached Federation's live peer count into
// the Peers gauge.
func (s *Server) SetPeerCount(n int) {
	s.mu.Lock()
	s.peerCount = n
	s.mu.Unlock()
}

// NoteStealIn counts federation-stolen tasks this server absorbed.
func (s *Server) NoteStealIn(n int) {
	s.mu.Lock()
	s.stealsIn += uint64(n)
	s.mu.Unlock()
}

// Status is the federation-facing load snapshot (see PeerStatus).
func (s *Server) Status() PeerStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := PeerStatus{
		FreeCapacity: s.freeCapacityLocked(),
		StealsOut:    s.stealsOut,
		StealsIn:     s.stealsIn,
	}
	entries, _, _ := s.store.Stats()
	st.StoreEntries = entries
	cutoff := time.Now().Add(-3 * s.leaseTTL)
	for name, w := range s.workers {
		if w.lastSeen.After(cutoff) && !strings.HasPrefix(name, PeerWorkerPrefix) {
			st.Workers++
		}
	}
	for _, t := range s.byID {
		switch {
		case t.worker != "":
			st.Leased++
		case !t.cancelled:
			st.QueueDepth++
			if t.hops < s.maxHops {
				st.Stealable++
			}
		}
	}
	if st.Stealable > st.QueueDepth-st.FreeCapacity {
		st.Stealable = st.QueueDepth - st.FreeCapacity
	}
	if st.Stealable < 0 {
		st.Stealable = 0
	}
	// Publish the worst still-queued batch ETA so thieves can steal from
	// the batch that will finish last (see PeerStatus.WorstEtaMS). Only
	// batches with queued work count — stealing cannot shorten a batch
	// whose every task is already running somewhere.
	now := time.Now()
	for id := range s.batches {
		eta := s.batchEtaLocked(s.batches[id], now)
		if eta.Queued > 0 && eta.EtaMS > st.WorstEtaMS {
			st.WorstEtaMS = eta.EtaMS
		}
	}
	return st
}

// ServeHTTP dispatches the wire protocol.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case pathBatch:
		s.handleBatch(w, r)
	case pathLease:
		s.handleLease(w, r)
	case pathHeartbeat:
		s.handleHeartbeat(w, r)
	case pathComplete:
		s.handleComplete(w, r)
	case pathCancel:
		s.handleCancel(w, r)
	case pathStoreGet:
		if !s.requirePeerAuth(w, r) {
			return
		}
		s.handleStoreGet(w, r)
	case pathStorePut:
		if !s.requirePeerAuth(w, r) {
			return
		}
		s.handleStorePut(w, r)
	case pathMetrics:
		if wantsProm(r) {
			s.servePromMetrics(w)
			return
		}
		writeJSON(w, s.Metrics())
	case pathMetricsProm:
		s.servePromMetrics(w)
	case pathTrace:
		s.handleTrace(w, r)
	case pathDashboard:
		serveDashboard(w)
	case pathPeerStatus:
		// A bare Server answers its own load snapshot so `helperd
		// federate` works against unfederated members too; the Federation
		// intercepts this path to fill in Self and Peers.
		if !s.requirePeerAuth(w, r) {
			return
		}
		writeJSON(w, s.Status())
	case pathHealthz:
		m := s.Metrics()
		writeJSON(w, map[string]any{
			"ok":      true,
			"queue":   m.QueueDepth,
			"leased":  m.Leased,
			"workers": m.Workers,
		})
	default:
		http.NotFound(w, r)
	}
}

// requirePeerAuth gates one request behind the shared-secret HMAC when
// WithPeerSecret armed it: a missing or invalid X-Grid-Peer-Auth header
// answers 403 and bumps the rejection counter. The body is read in full
// for MAC verification and restored for the handler behind the gate.
func (s *Server) requirePeerAuth(w http.ResponseWriter, r *http.Request) bool {
	if s.peerSecret == "" {
		return true
	}
	var body []byte
	if r.Body != nil && r.Body != http.NoBody {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxStorePayload+4096))
		if err != nil {
			http.Error(w, fmt.Sprintf("grid: peer auth: %v", err), http.StatusBadRequest)
			return false
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	err := verifyPeerAuth(s.peerSecret, r.Header.Get(PeerAuthHeader),
		r.Method, requestAuthPath(r), body, time.Now())
	if err != nil {
		s.authRejects.Add(1)
		if s.log != nil {
			s.log.Warn("peer auth rejected", "path", r.URL.Path,
				"remote", r.RemoteAddr, "err", err)
		}
		http.Error(w, "grid: peer auth required", http.StatusForbidden)
		return false
	}
	return true
}

// handleTrace serves the tracer's ring: ?id=<trace|task|batch> answers
// that trace's events oldest-first, no id answers recent trace
// summaries (?limit= caps them, default 50). 404 when tracing is
// disabled, so clients can tell "off" from "empty".
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil {
		http.Error(w, "grid: tracing disabled", http.StatusNotFound)
		return
	}
	if id := r.URL.Query().Get("id"); id != "" {
		writeJSON(w, traceResponse{Events: s.tracer.Events(id)})
		return
	}
	limit := 50
	if v := r.URL.Query().Get("limit"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			limit = n
		}
	}
	writeJSON(w, traceResponse{Traces: s.tracer.Recent(limit)})
}

// peerStore is the Storage the /v1/store endpoints expose: this
// member's LOCAL tier only. When the server's store is a ShardedStore,
// answering a peer's lookup through the sharded Get would fan the
// request back out to the other owners — members asking members asking
// members, a mutual recursion that wedges every lookup until the
// timeouts trip (and a put echo that re-replicates every replica).
// A peer asking this member wants this member's slice, nothing more;
// the asking side already walks the owner list itself.
func (s *Server) peerStore() Storage {
	if ss, ok := s.store.(*ShardedStore); ok {
		return ss.Local()
	}
	return s.store
}

// handleStoreGet serves one stored payload raw: 200 with the bytes on a
// hit, 404 on a miss. Together with handleStorePut it turns this
// server's Storage into the federation's shared cache tier — a peer
// whose ShardedStore names this server an owner reads and banks results
// in the same store this server answers cache hits from.
func (s *Server) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	hash := r.URL.Query().Get("hash")
	if hash == "" {
		http.Error(w, "grid: store get without hash", http.StatusBadRequest)
		return
	}
	payload, ok := s.peerStore().Get(hash)
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(payload)
}

// handleStorePut banks one successful result payload under the given
// hash (first write wins, like every Storage).
func (s *Server) handleStorePut(w http.ResponseWriter, r *http.Request) {
	hash := r.URL.Query().Get("hash")
	if hash == "" {
		http.Error(w, "grid: store put without hash", http.StatusBadRequest)
		return
	}
	payload, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxStorePayload))
	if err != nil {
		http.Error(w, fmt.Sprintf("grid: store put: %v", err), http.StatusBadRequest)
		return
	}
	s.peerStore().Put(hash, payload)
	w.WriteHeader(http.StatusNoContent)
}

// maxStorePayload bounds one remote store write (a Result JSON is a few
// KB; 64 MB leaves room for any future payload without letting a rogue
// client exhaust memory).
const maxStorePayload = 64 << 20

// maxBatchBody bounds one /v1/batch request body. A ladder job encodes
// to about 1.2 KB of JSON, so 64 MB holds tens of thousands of jobs per
// batch while keeping a rogue client from exhausting server memory.
const maxBatchBody = 64 << 20

// handleBatch accepts a job batch and streams its results back as
// NDJSON, one TaskResult per line, flushed as they land. The request
// context is the batch's lifetime: when the client disconnects, queued
// work is abandoned and leased work is cancelled at the owning worker's
// next heartbeat. A body over maxBatchBody is refused 413 before any
// job is looked at.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	admittedAt := time.Now()
	var req batchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBody)).Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("grid: bad batch: %v", err), status)
		return
	}
	// A federated thief re-submitting stolen work annotates the steal
	// origin in X-Grid-Trace; the hop lands in this server's ring so a
	// merged trace shows where the job came from.
	origin, stolenIn := parseTraceOrigin(r.Header.Get(TraceHeader))
	b := &batch{ch: make(chan TaskResult, len(req.Jobs))}
	if req.Progress {
		// Progress sends are non-blocking (lossy); the buffer just smooths
		// bursts between the handler's stream writes.
		b.prog = make(chan TaskProgress, 64)
	}
	var immediate []TaskResult
	pending := 0

	// coalesceLocked joins a job onto an already-pending task. Coalescing
	// is checked BEFORE the store: a completing task banks its result
	// outside the lock and unpends under it, so a hash can momentarily be
	// in both — joining the pending task is correct either way (the
	// completion fans out to every subscriber), and a coalesced job is
	// neither a cache hit nor a miss, keeping the Metrics invariant that
	// every submitted job is exactly one of hit/coalesce/miss (a rare
	// admission race, noted below, can add a spurious miss).
	coalesceLocked := func(t *task, jobID string) {
		pending++
		// Reviving a cancelled lease requeues it: its worker may already
		// have aborted on the cancellation notice, and if it hasn't, the
		// duplicate grant is harmless — the first completion wins.
		if t.cancelled && t.worker != "" {
			t.worker = ""
			t.enqueuedAt = time.Now()
			heap.Push(&s.queue, t)
		}
		t.cancelled = false
		t.subs = append(t.subs, subscriber{batch: b, jobID: jobID})
		s.coalesced++
	}

	// Phase 1, under the lock: reject empties, coalesce onto pending
	// tasks, and collect the rest for store lookups — deduplicated by
	// hash, so a batch repeating a job costs one lookup (its duplicates
	// count as Coalesced, like any other join onto shared work).
	type lookup struct {
		first Task     // carries the payload and priority
		dups  []string // job IDs of within-batch duplicates of the hash
		hash  string
	}
	var lookups []lookup
	lookupIdx := map[string]int{}
	s.mu.Lock()
	s.batchSeq++
	b.id = fmt.Sprintf("b%d", s.batchSeq)
	s.batches[b.id] = b
	for _, j := range req.Jobs {
		if len(j.Payload) == 0 {
			// Rejected before admission: not Submitted, so the invariant
			// Submitted = CacheHits + Coalesced + CacheMisses holds.
			immediate = append(immediate, TaskResult{ID: j.ID, Err: "grid: empty payload"})
			continue
		}
		s.submitted++
		hash := j.Hash
		if hash == "" {
			hash = HashBytes(j.Payload)
		}
		s.tracer.Record(TraceEvent{Trace: hash, Stage: StageAdmitted, Batch: b.id})
		if stolenIn {
			s.tracer.Record(TraceEvent{Trace: hash, Stage: StageStolen,
				Batch: b.id, Peer: origin.peer, Hop: origin.hop,
				Task: origin.task, Detail: "in"})
		}
		if t, ok := s.byHash[hash]; ok {
			coalesceLocked(t, j.ID)
			continue
		}
		if i, ok := lookupIdx[hash]; ok {
			lookups[i].dups = append(lookups[i].dups, j.ID)
			s.coalesced++
			continue
		}
		lookupIdx[hash] = len(lookups)
		lookups = append(lookups, lookup{first: j, hash: hash})
	}
	s.mu.Unlock()

	// Phase 2, outside the lock: store lookups. On a disk-backed store
	// each Get is a file read plus checksum verification — holding s.mu
	// across a large cached batch would stall every lease, heartbeat and
	// completion for the whole scan.
	hits := make([][]byte, len(lookups))
	hit := make([]bool, len(lookups))
	for i, l := range lookups {
		hits[i], hit[i] = s.store.Get(l.hash)
	}

	// Phase 3, back under the lock: answer hits, queue misses. A miss
	// whose hash became pending while unlocked coalesces here (its store
	// miss was already counted — the one soft spot in the exactly-one-of
	// invariant, and the only cost of keeping disk I/O out of the lock).
	s.mu.Lock()
	for i, l := range lookups {
		if hit[i] {
			s.tracer.Record(TraceEvent{Trace: l.hash, Stage: StageCacheHit, Batch: b.id})
			immediate = append(immediate, TaskResult{ID: l.first.ID, Hash: l.hash, Cached: true, Payload: hits[i]})
			for _, id := range l.dups {
				immediate = append(immediate, TaskResult{ID: id, Hash: l.hash, Cached: true, Payload: hits[i]})
			}
			continue
		}
		if t, ok := s.byHash[l.hash]; ok {
			coalesceLocked(t, l.first.ID)
			for _, id := range l.dups {
				t.subs = append(t.subs, subscriber{batch: b, jobID: id})
				pending++
			}
			continue
		}
		pending++
		s.seq++
		now := time.Now()
		t := &task{
			id:         fmt.Sprintf("t%d", s.seq),
			hash:       l.hash,
			payload:    l.first.Payload,
			priority:   l.first.Priority,
			seq:        s.seq,
			profile:    l.first.Profile,
			hops:       l.first.Hops,
			enqueuedAt: now,
			admittedAt: admittedAt,
		}
		s.tracer.Record(TraceEvent{Trace: l.hash, Stage: StageEnqueued,
			Task: t.id, Batch: b.id})
		s.observeStageLocked("admission", now.Sub(admittedAt))
		t.subs = append(t.subs, subscriber{batch: b, jobID: l.first.ID})
		for _, id := range l.dups {
			t.subs = append(t.subs, subscriber{batch: b, jobID: id})
			pending++
		}
		s.byID[t.id] = t
		s.byHash[l.hash] = t
		heap.Push(&s.queue, t)
	}
	if pending > 0 {
		s.wakeLocked()
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.batches, b.id)
		s.mu.Unlock()
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(batchHeader, b.id)
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	flush := func() {
		bw.Flush()
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	for _, res := range immediate {
		enc.Encode(res)
	}
	flush()
	for delivered := 0; delivered < pending; delivered++ {
		select {
		case res := <-b.ch:
			enc.Encode(res)
			flush()
		case p := <-b.prog:
			// An interim event: the task still owes its final line, so
			// the delivered count stands. Receiving on a nil b.prog (a
			// batch that never asked for progress) blocks forever, which
			// is exactly the disabled behaviour.
			enc.Encode(TaskResult{ID: p.ID, Hash: p.Hash, Progress: &p})
			flush()
			delivered--
		case <-r.Context().Done():
			s.dropBatch(b)
			return
		case <-s.closed:
			return
		}
	}
}

// dropBatch removes every subscription of a departed batch. Tasks left
// with no subscribers are marked cancelled: queued ones are skipped (and
// discarded) at the next grant, leased ones are reported cancelled to
// their worker on its next heartbeat.
func (s *Server) dropBatch(b *batch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropSubsLocked(
		func(*task, subscriber) bool { return true },
		b, nil)
}

// dropSubsLocked removes batch b's subscriptions matched by drop,
// invoking onDrop (if non-nil) for each removed one, and applies the
// shared no-subscribers-left transition: the task is marked cancelled —
// discarded at the next grant if queued, aborted at its worker's next
// heartbeat if leased — and counted abandoned. Both the full-batch
// disconnect and the per-job early stop funnel through here so the
// transition can never drift between them.
func (s *Server) dropSubsLocked(drop func(*task, subscriber) bool, b *batch, onDrop func(*task, subscriber)) {
	for _, t := range s.byID {
		kept := t.subs[:0]
		for _, sub := range t.subs {
			if sub.batch == b && drop(t, sub) {
				if onDrop != nil {
					onDrop(t, sub)
				}
				continue
			}
			kept = append(kept, sub)
		}
		t.subs = kept
		if len(t.subs) == 0 && !t.cancelled {
			t.cancelled = true
			s.abandoned++
		}
	}
}

// handleLease grants up to capacity-in_flight queued tasks to a worker,
// long-polling up to wait_ms when the queue is empty.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("grid: bad lease: %v", err), http.StatusBadRequest)
		return
	}
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait < 0 {
		wait = 0
	}
	if wait > 30*time.Second {
		wait = 30 * time.Second
	}
	deadline := time.Now().Add(wait)
	for {
		s.mu.Lock()
		s.touchWorkerLocked(req.Worker, req.Capacity, req.InFlight)
		tasks := s.grantLocked(req)
		wake := s.wake
		s.mu.Unlock()
		if len(tasks) > 0 || !time.Now().Before(deadline) {
			if len(tasks) == 0 {
				// The long poll ran dry: the lease-wait histogram only
				// sees grants, so idle polling is invisible without this.
				s.leasePollEmpty.Add(1)
			}
			writeJSON(w, leaseResponse{Tasks: tasks, LeaseMS: s.leaseTTL.Milliseconds()})
			return
		}
		timer := time.NewTimer(time.Until(deadline))
		select {
		case <-wake:
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			return
		case <-s.closed:
			timer.Stop()
			s.leasePollEmpty.Add(1)
			writeJSON(w, leaseResponse{LeaseMS: s.leaseTTL.Milliseconds()})
			return
		}
		timer.Stop()
	}
}

// grantLocked pops queued tasks for a worker, honouring its reported
// free capacity and discarding abandoned tasks it encounters. Affinity:
// when the popped task's profile is cold on this worker but an
// equal-priority queued task's profile is warm, the two swap — affinity
// only ever reorders within a priority level, so the strict
// priority-then-FIFO grant order of unprofiled work is untouched.
func (s *Server) grantLocked(req leaseRequest) []Task {
	capacity := req.Capacity
	if capacity < 1 {
		capacity = 1
	}
	k := capacity - req.InFlight
	ws := s.workers[req.Worker]
	var out []Task
	now := time.Now()
	for len(out) < k && s.queue.Len() > 0 {
		t := heap.Pop(&s.queue).(*task)
		if t.cancelled && len(t.subs) == 0 {
			delete(s.byID, t.id)
			delete(s.byHash, t.hash)
			continue
		}
		if ws != nil && t.profile != "" && !ws.sawProfile(t.profile) {
			if alt := s.affineAltLocked(ws, t); alt != nil {
				heap.Push(&s.queue, t)
				t = alt
			}
		}
		if t.profile != "" {
			if ws != nil && ws.sawProfile(t.profile) {
				s.affinityHits++
			} else {
				s.affinityMisses++
			}
			if ws != nil {
				ws.noteProfile(t.profile)
			}
		}
		if !t.enqueuedAt.IsZero() {
			s.recordLeaseWaitLocked(now.Sub(t.enqueuedAt))
		}
		t.worker = req.Worker
		t.deadline = now.Add(s.leaseTTL)
		t.attempts++
		t.leasedAt = now
		if t.firstLeased.IsZero() {
			t.firstLeased = now
		}
		s.leasesGranted++
		s.tracer.Record(TraceEvent{Trace: t.hash, Stage: StageLeased,
			Task: t.id, Worker: req.Worker, Attempt: t.attempts})
		out = append(out, Task{ID: t.id, Hash: t.hash, Priority: t.priority,
			Payload: t.payload, Attempt: t.attempts, Profile: t.profile, Hops: t.hops})
	}
	return out
}

// affineAltLocked finds the earliest queued task of t's priority whose
// profile the worker recently ran and removes it from the queue (the
// caller grants it in t's place). Nil when no affine candidate exists.
func (s *Server) affineAltLocked(ws *workerState, t *task) *task {
	var best *task
	for _, c := range s.queue {
		if c.priority != t.priority || c.profile == "" || !ws.sawProfile(c.profile) {
			continue
		}
		if c.cancelled && len(c.subs) == 0 {
			continue
		}
		if best == nil || c.seq < best.seq {
			best = c
		}
	}
	if best != nil {
		heap.Remove(&s.queue, best.heapIndex)
	}
	return best
}

// StealGrant leases up to max queued tasks to a federated peer (worker
// name PeerWorkerPrefix+peer), honouring the hop bound and granting only
// the queue surplus local free capacity cannot absorb imminently. The
// returned tasks carry their attempt tokens — the thief heartbeats and
// completes through the normal worker endpoints, so stolen work keeps
// the exactly-once discipline. The second result is the lease TTL in
// milliseconds.
func (s *Server) StealGrant(peer string, max int) ([]Task, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ttl := s.leaseTTL.Milliseconds()
	surplus := 0
	for _, t := range s.byID {
		if t.worker == "" && !t.cancelled {
			surplus++
		}
	}
	surplus -= s.freeCapacityLocked()
	if max > surplus {
		max = surplus
	}
	if max < 1 {
		return nil, ttl
	}
	worker := PeerWorkerPrefix + peer
	s.touchWorkerLocked(worker, 0, 0)
	now := time.Now()
	var out []Task
	var setAside []*task
	for len(out) < max && s.queue.Len() > 0 {
		t := heap.Pop(&s.queue).(*task)
		if t.cancelled && len(t.subs) == 0 {
			delete(s.byID, t.id)
			delete(s.byHash, t.hash)
			continue
		}
		if t.hops >= s.maxHops {
			// At the hop bound: this task must run where it sits.
			setAside = append(setAside, t)
			continue
		}
		if !t.enqueuedAt.IsZero() {
			s.recordLeaseWaitLocked(now.Sub(t.enqueuedAt))
		}
		t.hops++
		t.worker = worker
		t.deadline = now.Add(s.leaseTTL)
		t.attempts++
		t.leasedAt = now
		if t.firstLeased.IsZero() {
			t.firstLeased = now
		}
		s.leasesGranted++
		s.stealsOut++
		s.tracer.Record(TraceEvent{Trace: t.hash, Stage: StageLeased,
			Task: t.id, Worker: worker, Attempt: t.attempts})
		s.tracer.Record(TraceEvent{Trace: t.hash, Stage: StageStolen,
			Task: t.id, Peer: peer, Hop: t.hops, Detail: "out"})
		out = append(out, Task{ID: t.id, Hash: t.hash, Priority: t.priority,
			Payload: t.payload, Attempt: t.attempts, Profile: t.profile, Hops: t.hops})
	}
	for _, t := range setAside {
		heap.Push(&s.queue, t)
	}
	return out, ttl
}

// ReleaseStolen returns a stolen lease immediately: the thief's
// loopback handoff failed (its own server died or refused the batch),
// so instead of burning CPU-less wall time until the lease TTL expires,
// the task goes straight back on the queue. The release is honoured
// only from the current peer holder at the current attempt — the same
// discipline handleComplete applies to failure reports — so a stale
// release (the lease already expired and moved on) is a no-op.
func (s *Server) ReleaseStolen(peer, id string, attempt int) bool {
	worker := PeerWorkerPrefix + BaseURL(peer)
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.byID[id]
	if !ok || t.worker != worker || t.attempts != attempt {
		return false
	}
	t.worker = ""
	t.progress = nil
	if t.cancelled && len(t.subs) == 0 {
		delete(s.byID, t.id)
		delete(s.byHash, t.hash)
		return true
	}
	// The steal never ran anywhere: give the hop back so a failed
	// handoff cannot eat the task's hop budget.
	if t.hops > 0 {
		t.hops--
	}
	s.stealReturns++
	t.enqueuedAt = time.Now()
	s.tracer.Record(TraceEvent{Trace: t.hash, Stage: StageEnqueued,
		Task: t.id, Detail: "steal released"})
	heap.Push(&s.queue, t)
	s.wakeLocked()
	return true
}

// handleHeartbeat renews the worker's leases and tells it which of its
// tasks to abort: cancelled (no subscribers left) or stale (the lease
// expired and the task moved on).
func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("grid: bad heartbeat: %v", err), http.StatusBadRequest)
		return
	}
	var resp heartbeatResponse
	now := time.Now()
	s.mu.Lock()
	s.touchWorkerLocked(req.Worker, 0, req.InFlight)
	for _, id := range req.Tasks {
		t, ok := s.byID[id]
		switch {
		case !ok || t.worker != req.Worker:
			resp.Stale = append(resp.Stale, id)
		case t.cancelled:
			resp.Cancelled = append(resp.Cancelled, id)
		default:
			t.deadline = now.Add(s.leaseTTL)
		}
	}
	// Fan each accepted interval snapshot out to the subscribed batches
	// under their own job IDs.
	etas := map[*batch]int64{}
	for _, p := range req.Progress {
		t, ok := s.byID[p.ID]
		if !ok {
			continue
		}
		// Accept progress only from the current lease holder: a
		// reassigned task's zombie must not overwrite the live worker's
		// numbers.
		if t.worker != req.Worker {
			continue
		}
		p.Hash = t.hash
		p.Worker = req.Worker
		snap := p
		t.progress = &snap
		s.progressUpdates++
		if t.firstProgress.IsZero() {
			t.firstProgress = now
			if !t.leasedAt.IsZero() {
				s.observeStageLocked("first_progress", now.Sub(t.leasedAt))
			}
		}
		s.tracer.Record(TraceEvent{Trace: t.hash, Stage: StageProgress,
			Task: t.id, Worker: req.Worker, Uops: p.Uops, Total: p.Total})
		for _, sub := range t.subs {
			fanned := p
			fanned.ID = sub.jobID
			// Stamp the batch's live ETA on the event (computed at most
			// once per batch per heartbeat) so clients see it without a
			// separate /metrics poll.
			eta, cached := etas[sub.batch]
			if !cached {
				eta = s.batchEtaLocked(sub.batch, now).EtaMS
				etas[sub.batch] = eta
			}
			fanned.BatchEtaMS = eta
			sub.batch.sendProgress(fanned)
		}
	}
	s.mu.Unlock()
	writeJSON(w, resp)
}

// handleCancel stops individual jobs of a live batch early: each named
// subscription is dropped and answered with a final stopped result on
// the stream, and a task left with no subscribers is cancelled exactly
// like a disconnected batch — queued copies are discarded at the next
// grant, leased ones aborted at their worker's next heartbeat (the
// cancellation surfaces in the Abandoned/EarlyStopped counters).
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	var req cancelRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("grid: bad cancel: %v", err), http.StatusBadRequest)
		return
	}
	want := make(map[string]bool, len(req.IDs))
	for _, id := range req.IDs {
		want[id] = true
	}
	var resp cancelResponse
	s.mu.Lock()
	b := s.batches[req.Batch]
	if b == nil {
		// A departed or finished batch: every job already got its final
		// result, so there is nothing to stop — report zero rather than
		// erroring, keeping late Stop calls (a progress callback firing
		// after the stream drained) harmless.
		s.mu.Unlock()
		writeJSON(w, cancelResponse{})
		return
	}
	s.dropSubsLocked(
		func(_ *task, sub subscriber) bool { return want[sub.jobID] },
		b,
		func(t *task, sub subscriber) {
			resp.Stopped++
			s.earlyStopped++
			// Buffered to the batch's job count, and each job delivers
			// at most once: cannot block.
			b.ch <- TaskResult{ID: sub.jobID, Hash: t.hash, Err: TaskStoppedError}
		})
	s.mu.Unlock()
	writeJSON(w, resp)
}

// handleComplete accepts a task execution report. The first successful
// completion wins regardless of which worker currently holds the lease
// (a slow worker may finish after its lease was reassigned — the result
// is just as good), and successes are banked in the store either way.
// Error completions are only honoured from the current lease ATTEMPT —
// worker name and attempt generation both matching — because a worker
// whose lease expired or was cancelled aborts its execution and reports
// a context error, and that must not poison the task another attempt is
// (or will be) computing correctly. The attempt check matters even with
// the name matching: an expired task can be re-leased to the *same*
// worker, and the old execution's abort must not fail the new one.
func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("grid: bad completion: %v", err), http.StatusBadRequest)
		return
	}
	// Bank a success before taking the main critical section — whether or
	// not the task is still live, the simulation is deterministic and the
	// bytes are good. Outside the lock because a Put on a disk-backed
	// store is a write plus an fsync: holding s.mu across it would stall
	// every lease, heartbeat and batch handler for milliseconds per
	// completion. The store may therefore briefly hold a hash that is
	// still pending, which is why batch admission checks pending before
	// the store. The key is the server's own record when the task is
	// still known (a cheap peek under the lock) — a worker echoing a
	// wrong hash must not plant garbage under a key nothing will ask for.
	if req.Err == "" {
		bank := req.Hash
		s.mu.Lock()
		if t, ok := s.byID[req.ID]; ok {
			bank = t.hash
		}
		s.mu.Unlock()
		s.store.Put(bank, req.Result)
	}
	// The worker echoes the task's trace ID on the completion post; it
	// keeps even a stale completion — the server already forgot the task
	// — attributable to its trace.
	headerTrace := r.Header.Get(TraceHeader)
	s.mu.Lock()
	t, ok := s.byID[req.ID]
	if !ok {
		// Already finished elsewhere (or never existed); the success, if
		// any, is banked above.
		if trace := headerTrace; trace != "" || req.Hash != "" {
			if trace == "" {
				trace = req.Hash
			}
			stage := StageCompleted
			if req.Err != "" {
				stage = StageFailed
			}
			s.tracer.Record(TraceEvent{Trace: trace, Stage: stage, Task: req.ID,
				Worker: req.Worker, Attempt: req.Attempt, Detail: "stale"})
		}
		s.mu.Unlock()
		writeJSON(w, completeResponse{Stale: true})
		return
	}
	if req.Err != "" && (t.worker != req.Worker || req.Attempt != t.attempts) {
		// A stale attempt's abort: the task has been requeued or
		// reassigned (possibly back to the same worker); leave it to its
		// current (or next) attempt.
		s.tracer.Record(TraceEvent{Trace: t.hash, Stage: StageFailed, Task: t.id,
			Worker: req.Worker, Attempt: req.Attempt, Detail: "stale"})
		s.mu.Unlock()
		writeJSON(w, completeResponse{Stale: true})
		return
	}
	if t.heapIndex >= 0 {
		heap.Remove(&s.queue, t.heapIndex)
	}
	delete(s.byID, t.id)
	delete(s.byHash, t.hash)
	now := time.Now()
	if req.Err == "" {
		// Already banked under t.hash above — the peek saw this task (IDs
		// are never reused, so a task known here was known then).
		s.completed++
		// Fold the wall duration (first lease to completion) into the
		// fleet EWMA that calibrates batch ETAs.
		if !t.firstLeased.IsZero() {
			if dur := now.Sub(t.firstLeased); dur > 0 {
				if s.avgTaskDur == 0 {
					s.avgTaskDur = dur
				} else {
					s.avgTaskDur = time.Duration(0.7*float64(s.avgTaskDur) + 0.3*float64(dur))
				}
			}
		}
		s.tracer.Record(TraceEvent{Trace: t.hash, Stage: StageCompleted,
			Task: t.id, Worker: req.Worker, Attempt: req.Attempt})
		if !t.leasedAt.IsZero() {
			s.observeStageLocked("exec", now.Sub(t.leasedAt))
		}
		if !t.admittedAt.IsZero() {
			s.observeStageLocked("e2e", now.Sub(t.admittedAt))
		}
		t.deliver(TaskResult{Hash: t.hash, Payload: req.Result})
	} else {
		s.failed++
		if s.log != nil {
			s.log.Error("task failed", "task", t.id, "worker", req.Worker, "err", req.Err)
		}
		s.tracer.Record(TraceEvent{Trace: t.hash, Stage: StageFailed, Task: t.id,
			Worker: req.Worker, Attempt: req.Attempt, Detail: req.Err})
		t.deliver(TaskResult{Hash: t.hash, Err: req.Err})
	}
	s.mu.Unlock()
	writeJSON(w, completeResponse{})
}

// reap periodically expires leases whose heartbeats stopped: the task
// goes back to the queue (reassignment) until maxAttempts is exhausted,
// at which point its subscribers get a failure.
func (s *Server) reap() {
	defer close(s.reaperDone)
	period := s.leaseTTL / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	if period > time.Second {
		period = time.Second
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-ticker.C:
			s.expireLeases()
		}
	}
}

func (s *Server) expireLeases() {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	requeued := false
	for _, t := range s.byID {
		if t.worker == "" || now.Before(t.deadline) {
			continue
		}
		t.worker = ""
		// The dead worker's snapshot must not show as the next lease
		// holder's numbers on /metrics.
		t.progress = nil
		if t.cancelled && len(t.subs) == 0 {
			delete(s.byID, t.id)
			delete(s.byHash, t.hash)
			continue
		}
		if t.attempts >= s.maxAttempts {
			delete(s.byID, t.id)
			delete(s.byHash, t.hash)
			s.failed++
			if s.log != nil {
				s.log.Error("task abandoned: max attempts",
					"task", t.id, "attempts", t.attempts)
			}
			s.tracer.Record(TraceEvent{Trace: t.hash, Stage: StageFailed,
				Task: t.id, Attempt: t.attempts, Detail: "max attempts"})
			t.deliver(TaskResult{Hash: t.hash, Err: fmt.Sprintf(
				"grid: task abandoned after %d expired leases (workers dying?)", t.attempts)})
			continue
		}
		s.reassigned++
		if s.log != nil {
			s.log.Warn("lease expired: task requeued",
				"task", t.id, "attempt", t.attempts)
		}
		t.enqueuedAt = now
		s.tracer.Record(TraceEvent{Trace: t.hash, Stage: StageEnqueued,
			Task: t.id, Detail: "reassigned"})
		heap.Push(&s.queue, t)
		requeued = true
	}
	if requeued {
		s.wakeLocked()
	}
	// Forget workers long past the liveness cutoff: ephemeral host-pid
	// names would otherwise grow the map forever on a long-lived server.
	cutoff := now.Add(-10 * s.leaseTTL)
	for name, ws := range s.workers {
		if ws.lastSeen.Before(cutoff) {
			delete(s.workers, name)
		}
	}
}

// wakeLocked releases every long-polling lease request.
func (s *Server) wakeLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

func (s *Server) touchWorkerLocked(name string, capacity, inFlight int) {
	if name == "" {
		return
	}
	ws := s.workers[name]
	if ws == nil {
		ws = &workerState{}
		s.workers[name] = ws
	}
	ws.lastSeen = time.Now()
	if capacity > 0 {
		ws.capacity = capacity
	}
	ws.inFlight = inFlight
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
