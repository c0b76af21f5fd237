package grid

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Job lifecycle tracing. Every job carries a trace context — the trace
// ID is its content hash (canonical Job.Hash), so identical jobs from
// any batch, any client, any federation member share one trace — and
// the server records a typed TraceEvent at each lifecycle stage into a
// bounded in-memory ring (optionally spilled as NDJSON). The span tree
// of a job is reconstructed by collecting its events, across federated
// peers when the job was stolen: the victim records the steal-out, the
// thief's loopback batch carries the origin in the X-Grid-Trace header
// and records the steal-in, and both halves share the trace ID because
// the payload (and therefore the hash) is identical.

// The lifecycle stage names of a TraceEvent.
const (
	// StageAdmitted marks a job arriving at the server in a batch.
	StageAdmitted = "admitted"
	// StageEnqueued marks a task entering the work queue: on creation,
	// and again on every requeue (Detail says why: "reassigned",
	// "steal released").
	StageEnqueued = "enqueued"
	// StageLeased marks a lease grant (Worker + Attempt identify it).
	StageLeased = "leased"
	// StageProgress is one interval snapshot relayed over a heartbeat.
	StageProgress = "progress"
	// StageStolen marks a federation hop: the victim records it with
	// Detail "out" (Peer = thief), the thief with Detail "in" (Peer =
	// victim, from the X-Grid-Trace header on its loopback batch).
	StageStolen = "stolen"
	// Terminal stages: exactly one per execution.
	StageCompleted = "completed"
	StageFailed    = "failed"
	StageCacheHit  = "cache_hit"
)

// TraceEvent is one recorded lifecycle stage of a traced job.
type TraceEvent struct {
	// Trace is the trace ID: the job's content hash ("sha256:<hex>").
	Trace string `json:"trace"`
	// Stage is one of the Stage* constants.
	Stage string `json:"stage"`
	// TimeNS is the wall-clock instant, UnixNano.
	TimeNS int64 `json:"time_ns"`
	// Batch is the server-assigned batch ID for batch-scoped stages
	// (admitted, cache_hit), Task the server-side task ID once one
	// exists.
	Batch string `json:"batch,omitempty"`
	Task  string `json:"task,omitempty"`
	// Worker and Attempt identify the lease on leased/progress/terminal
	// stages.
	Worker  string `json:"worker,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	// Peer and Hop describe a federation steal (see StageStolen).
	Peer string `json:"peer,omitempty"`
	Hop  int    `json:"hop,omitempty"`
	// Uops/Total carry the measurement of a progress event.
	Uops  uint64 `json:"uops,omitempty"`
	Total uint64 `json:"total,omitempty"`
	// Detail disambiguates within a stage ("reassigned", "out", "in",
	// "stale", an error message on failed).
	Detail string `json:"detail,omitempty"`
	// Source is the base URL of the server whose ring held the event —
	// stamped by clients merging events across federated peers, never
	// by the recording server itself.
	Source string `json:"source,omitempty"`
}

// TraceSummary is one trace as listed by the no-ID /v1/trace query:
// which stages its ring events cover and when they happened.
type TraceSummary struct {
	Trace   string   `json:"trace"`
	Stages  []string `json:"stages"`
	Events  int      `json:"events"`
	FirstNS int64    `json:"first_ns"`
	LastNS  int64    `json:"last_ns"`
}

// traceResponse is the /v1/trace wire shape: Events for an ID query,
// Traces for a listing.
type traceResponse struct {
	Events []TraceEvent   `json:"events,omitempty"`
	Traces []TraceSummary `json:"traces,omitempty"`
}

// Tracer records lifecycle events into a bounded ring. Recording is a
// mutex-guarded slot write — no allocation, no I/O — so it sits on the
// server's request paths without measurable cost; the optional NDJSON
// spill runs on its own goroutine behind a lossy buffered channel, so a
// slow disk can drop spilled events but never back-pressures the grid.
// A nil *Tracer is valid and records nothing.
type Tracer struct {
	mu    sync.Mutex
	ring  []TraceEvent
	next  int
	count int
	total uint64

	spill     chan TraceEvent
	spillDone chan struct{}
	spillOnce sync.Once
	dropped   atomic.Uint64
}

// DefaultTraceCapacity bounds the ring when the caller does not choose:
// enough for the full span set of a few hundred in-flight jobs.
const DefaultTraceCapacity = 4096

// NewTracer builds a tracer with the given ring capacity (<=0 uses
// DefaultTraceCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{ring: make([]TraceEvent, capacity)}
}

// SetSpill streams every recorded event to w as NDJSON from a dedicated
// goroutine. Call before the tracer is in use (helperd wires it at
// startup). Spill sends are non-blocking: events dropped because the
// writer lags are counted, not waited for.
func (tr *Tracer) SetSpill(w io.Writer) {
	if tr == nil || w == nil {
		return
	}
	tr.spill = make(chan TraceEvent, 256)
	tr.spillDone = make(chan struct{})
	go func() {
		defer close(tr.spillDone)
		enc := json.NewEncoder(w)
		for ev := range tr.spill {
			enc.Encode(ev)
		}
	}()
}

// Close stops the spill goroutine (flushing what is buffered). The ring
// stays readable. Idempotent; a no-op without a spill.
func (tr *Tracer) Close() {
	if tr == nil || tr.spill == nil {
		return
	}
	tr.spillOnce.Do(func() {
		close(tr.spill)
		<-tr.spillDone
	})
}

// Record appends one event to the ring (stamping TimeNS if unset),
// overwriting the oldest once full.
func (tr *Tracer) Record(ev TraceEvent) {
	if tr == nil {
		return
	}
	if ev.TimeNS == 0 {
		ev.TimeNS = time.Now().UnixNano()
	}
	tr.mu.Lock()
	tr.ring[tr.next] = ev
	tr.next = (tr.next + 1) % len(tr.ring)
	if tr.count < len(tr.ring) {
		tr.count++
	}
	tr.total++
	spill := tr.spill
	tr.mu.Unlock()
	if spill != nil {
		select {
		case spill <- ev:
		default:
			tr.dropped.Add(1)
		}
	}
}

// TraceStats is the tracer's self-report in /metrics: ring occupancy
// (Events never exceeds Capacity — the boundedness invariant the churn
// test pins), lifetime Total, and spill-channel drops.
type TraceStats struct {
	Events       int    `json:"events"`
	Capacity     int    `json:"capacity"`
	Total        uint64 `json:"total"`
	SpillDropped uint64 `json:"spill_dropped,omitempty"`
}

// Stats reports the ring occupancy, the events ever recorded, and the
// spill drops.
func (tr *Tracer) Stats() TraceStats {
	if tr == nil {
		return TraceStats{}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return TraceStats{
		Events:       tr.count,
		Capacity:     len(tr.ring),
		Total:        tr.total,
		SpillDropped: tr.dropped.Load(),
	}
}

// each visits the ring oldest-first.
func (tr *Tracer) each(f func(TraceEvent)) {
	start := tr.next - tr.count
	for i := 0; i < tr.count; i++ {
		f(tr.ring[(start+i+len(tr.ring))%len(tr.ring)])
	}
}

// Events returns the ring's events matching id — a trace ID (content
// hash), a server task ID, or a batch ID — oldest first.
func (tr *Tracer) Events(id string) []TraceEvent {
	if tr == nil || id == "" {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []TraceEvent
	tr.each(func(ev TraceEvent) {
		if ev.Trace == id || ev.Task == id || ev.Batch == id {
			out = append(out, ev)
		}
	})
	return out
}

// Recent summarizes the ring's traces, most recently touched first,
// capped at limit (<=0 means all).
func (tr *Tracer) Recent(limit int) []TraceSummary {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	byTrace := map[string]*TraceSummary{}
	tr.each(func(ev TraceEvent) {
		s := byTrace[ev.Trace]
		if s == nil {
			s = &TraceSummary{Trace: ev.Trace, FirstNS: ev.TimeNS}
			byTrace[ev.Trace] = s
		}
		s.Events++
		if ev.TimeNS > s.LastNS {
			s.LastNS = ev.TimeNS
		}
		if ev.TimeNS < s.FirstNS {
			s.FirstNS = ev.TimeNS
		}
		found := false
		for _, st := range s.Stages {
			if st == ev.Stage {
				found = true
				break
			}
		}
		if !found {
			s.Stages = append(s.Stages, ev.Stage)
		}
	})
	tr.mu.Unlock()
	out := make([]TraceSummary, 0, len(byTrace))
	for _, s := range byTrace {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].LastNS != out[j].LastNS {
			return out[i].LastNS > out[j].LastNS
		}
		return out[i].Trace < out[j].Trace
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// stageRank breaks timestamp ties so same-instant events sort in
// lifecycle order.
func stageRank(stage string) int {
	switch stage {
	case StageAdmitted:
		return 0
	case StageStolen:
		return 1
	case StageEnqueued:
		return 2
	case StageLeased:
		return 3
	case StageProgress:
		return 4
	default: // terminals
		return 5
	}
}

// SortEvents orders events by time, lifecycle rank within an instant.
func SortEvents(evs []TraceEvent) {
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].TimeNS != evs[j].TimeNS {
			return evs[i].TimeNS < evs[j].TimeNS
		}
		return stageRank(evs[i].Stage) < stageRank(evs[j].Stage)
	})
}

// Trace validation kinds for ValidateTrace.
const (
	TraceKindExec   = "exec"   // ran locally: admitted→enqueued→leased→completed
	TraceKindCached = "cached" // latest admission answered by the store, no exec span
	TraceKindStolen = "stolen" // crossed a federation hop before completing
)

// ValidateTrace checks that a merged event set reconstructs a complete,
// monotonic span tree of the given kind ("" accepts any complete
// trace). Completeness means the lifecycle stages the kind implies are
// all present; monotonic means the first occurrence of each pipeline
// stage — admitted, enqueued, leased — and the final terminal never go
// backwards in time. helperd trace -check and the smoke script gate on
// it.
func ValidateTrace(evs []TraceEvent, kind string) error {
	if len(evs) == 0 {
		return errors.New("grid: trace has no events")
	}
	s := make([]TraceEvent, len(evs))
	copy(s, evs)
	SortEvents(s)
	first := map[string]TraceEvent{}
	last := map[string]TraceEvent{}
	for _, ev := range s {
		if _, ok := first[ev.Stage]; !ok {
			first[ev.Stage] = ev
		}
		last[ev.Stage] = ev
	}
	terminal := ""
	var terminalNS int64
	for _, st := range []string{StageCompleted, StageFailed, StageCacheHit} {
		if ev, ok := last[st]; ok && ev.TimeNS >= terminalNS {
			terminal, terminalNS = st, ev.TimeNS
		}
	}
	if terminal == "" {
		return fmt.Errorf("grid: trace incomplete: no terminal event among %s", stageList(first))
	}
	prevStage, prevNS := "", int64(0)
	for _, st := range []string{StageAdmitted, StageEnqueued, StageLeased} {
		ev, ok := first[st]
		if !ok {
			continue
		}
		if ev.TimeNS < prevNS {
			return fmt.Errorf("grid: trace not monotonic: %s at %d precedes %s at %d",
				st, ev.TimeNS, prevStage, prevNS)
		}
		prevStage, prevNS = st, ev.TimeNS
	}
	if terminalNS < prevNS {
		return fmt.Errorf("grid: trace not monotonic: terminal %s at %d precedes %s at %d",
			terminal, terminalNS, prevStage, prevNS)
	}
	switch kind {
	case "":
	case TraceKindExec:
		for _, st := range []string{StageAdmitted, StageEnqueued, StageLeased} {
			if _, ok := first[st]; !ok {
				return fmt.Errorf("grid: exec trace missing %s (stages: %s)", st, stageList(first))
			}
		}
		if terminal != StageCompleted {
			return fmt.Errorf("grid: exec trace terminal is %s, want %s", terminal, StageCompleted)
		}
	case TraceKindCached:
		adm, ok := last[StageAdmitted]
		if !ok {
			return fmt.Errorf("grid: cached trace has no admitted event")
		}
		hit, ok := last[StageCacheHit]
		if !ok || hit.TimeNS < adm.TimeNS {
			return fmt.Errorf("grid: latest admission was not served from cache (stages: %s)", stageList(first))
		}
		// Zero exec span: nothing was leased after the cached admission.
		if l, ok := last[StageLeased]; ok && l.TimeNS >= adm.TimeNS {
			return fmt.Errorf("grid: cached trace shows a lease after admission — exec span not zero")
		}
	case TraceKindStolen:
		st, ok := first[StageStolen]
		if !ok {
			return fmt.Errorf("grid: stolen trace has no %s event (stages: %s)", StageStolen, stageList(first))
		}
		if st.Peer == "" {
			return fmt.Errorf("grid: stolen event carries no peer")
		}
		if terminal != StageCompleted {
			return fmt.Errorf("grid: stolen trace terminal is %s, want %s", terminal, StageCompleted)
		}
	default:
		return fmt.Errorf("grid: unknown trace kind %q", kind)
	}
	return nil
}

func stageList(m map[string]TraceEvent) string {
	out := make([]string, 0, len(m))
	for st := range m {
		out = append(out, st)
	}
	sort.Strings(out)
	if len(out) == 0 {
		return "none"
	}
	return strings.Join(out, ",")
}

// SpanDurations are the reconstructed per-stage latencies of one trace,
// the operator-facing digest helperd trace prints. A negative field
// means the span's endpoints were not both observed.
type SpanDurations struct {
	// Admission: admitted → enqueued (includes the store lookup).
	Admission time.Duration
	// Queue: enqueued → first lease.
	Queue time.Duration
	// FirstProgress: first lease → first progress snapshot.
	FirstProgress time.Duration
	// Exec: last lease → terminal.
	Exec time.Duration
	// EndToEnd: admitted → terminal.
	EndToEnd time.Duration
}

// Durations reconstructs the span latencies from a (merged) event set.
func Durations(evs []TraceEvent) SpanDurations {
	s := make([]TraceEvent, len(evs))
	copy(s, evs)
	SortEvents(s)
	first := map[string]TraceEvent{}
	last := map[string]TraceEvent{}
	for _, ev := range s {
		if _, ok := first[ev.Stage]; !ok {
			first[ev.Stage] = ev
		}
		last[ev.Stage] = ev
	}
	var terminalNS int64
	for _, st := range []string{StageCompleted, StageFailed, StageCacheHit} {
		if ev, ok := last[st]; ok && ev.TimeNS > terminalNS {
			terminalNS = ev.TimeNS
		}
	}
	span := func(a, b int64) time.Duration {
		if a == 0 || b == 0 {
			return -1
		}
		return time.Duration(b - a)
	}
	stageNS := func(m map[string]TraceEvent, st string) int64 {
		if ev, ok := m[st]; ok {
			return ev.TimeNS
		}
		return 0
	}
	return SpanDurations{
		Admission:     span(stageNS(first, StageAdmitted), stageNS(first, StageEnqueued)),
		Queue:         span(stageNS(first, StageEnqueued), stageNS(first, StageLeased)),
		FirstProgress: span(stageNS(first, StageLeased), stageNS(first, StageProgress)),
		Exec:          span(stageNS(last, StageLeased), terminalNS),
		EndToEnd:      span(stageNS(first, StageAdmitted), terminalNS),
	}
}

// The X-Grid-Trace header carries trace context between grid roles: a
// thief's loopback batch annotates the steal origin so the hop appears
// in the thief's ring, and worker completion posts echo the task's
// trace ID so even a stale completion (the server already forgot the
// task) still lands in the trace.
const TraceHeader = "X-Grid-Trace"

// traceOrigin is the parsed X-Grid-Trace steal annotation.
type traceOrigin struct {
	peer string
	task string
	hop  int
}

// formatTraceOrigin encodes a steal origin for the X-Grid-Trace header.
func formatTraceOrigin(peer, task string, hop int) string {
	return fmt.Sprintf("stolen-from=%s;task=%s;hop=%d", peer, task, hop)
}

// parseTraceOrigin decodes a steal annotation; ok is false for an
// absent or foreign-shaped header (a bare trace ID, a worker echo).
func parseTraceOrigin(h string) (traceOrigin, bool) {
	if !strings.HasPrefix(h, "stolen-from=") {
		return traceOrigin{}, false
	}
	var o traceOrigin
	for _, part := range strings.Split(h, ";") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			continue
		}
		switch k {
		case "stolen-from":
			o.peer = v
		case "task":
			o.task = v
		case "hop":
			o.hop, _ = strconv.Atoi(v)
		}
	}
	return o, o.peer != ""
}
