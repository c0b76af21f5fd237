package grid

import (
	"fmt"
	"net/http"
	"strings"
)

// wantsProm reports whether a /metrics request asked for the Prometheus
// text form instead of the JSON snapshot: either explicitly
// (?format=prom) or through content negotiation (an Accept header
// preferring text/plain, which is what a Prometheus scraper sends,
// without also accepting application/json). Everything else — curl,
// helperd metrics, the federation — keeps getting JSON.
func wantsProm(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prom" {
		return true
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") &&
		!strings.Contains(accept, "application/json")
}

// servePromMetrics renders the counter snapshot in Prometheus text
// exposition format (version 0.0.4): the scalar counters and gauges of
// the JSON /metrics, the lease-wait histogram and the per-stage latency
// histograms.
func (s *Server) servePromMetrics(w http.ResponseWriter) {
	s.mu.Lock()
	m := s.metricsLocked()
	buckets := s.latBuckets
	latSum, latCount := s.latSumMS, s.latCount
	// Copy the stage histograms, in stageOrder for a stable scrape, so
	// rendering happens off the lock.
	type stageSeries struct {
		stage string
		hist  stageHist
	}
	var stages []stageSeries
	for _, stage := range stageOrder {
		if h := s.stageHists[stage]; h != nil {
			stages = append(stages, stageSeries{stage, *h})
		}
	}
	s.mu.Unlock()

	var b strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("grid_submitted_total", "Jobs accepted across all batches.", m.Submitted)
	counter("grid_cache_hits_total", "Jobs served from the content-addressed store.", m.CacheHits)
	counter("grid_cache_misses_total", "Jobs that missed the store and created tasks.", m.CacheMisses)
	counter("grid_coalesced_total", "Jobs that joined an already-pending task.", m.Coalesced)
	counter("grid_completed_total", "Task executions reported successful.", m.Completed)
	counter("grid_failed_total", "Task executions reported failed.", m.Failed)
	counter("grid_leases_granted_total", "Tasks handed to workers.", m.LeasesGranted)
	counter("grid_lease_poll_empty_total", "Lease polls answered with zero tasks.", m.LeasePollEmpty)
	counter("grid_reassigned_total", "Leases expired without a heartbeat and requeued.", m.Reassigned)
	counter("grid_abandoned_total", "Tasks dropped because every subscriber left.", m.Abandoned)
	counter("grid_steals_out_total", "Tasks stolen by federation peers.", m.StealsOut)
	counter("grid_steals_in_total", "Tasks stolen from federation peers.", m.StealsIn)
	counter("grid_steal_returns_total", "Stolen leases handed back after a failed thief handoff.", m.StealReturns)
	counter("grid_peer_auth_rejected_total", "Peer-seam requests refused for a missing or invalid HMAC.", m.PeerAuthRejected)
	gauge("grid_queue_depth", "Queued tasks.", int64(m.QueueDepth))
	gauge("grid_leased", "Leased tasks.", int64(m.Leased))
	gauge("grid_workers", "Live simulation workers.", int64(m.Workers))
	gauge("grid_peers", "Known federation peers.", int64(m.Peers))
	gauge("grid_store_entries", "Content-addressed store entries.", int64(m.StoreEntries))
	counter("grid_store_puts_dropped_total", "Background store writes shed (peer down, queue overflow, or failure).", m.StorePutsDropped)
	if m.StoreReplication > 0 {
		counter("grid_store_remote_hits_total", "Gets answered by a shard peer after a local miss.", m.StoreRemoteHits)
		counter("grid_store_read_repairs_total", "Remote hits re-replicated into the local store.", m.StoreReadRepairs)
		gauge("grid_store_replication", "Configured sharded-store owners per hash.", int64(m.StoreReplication))
		gauge("grid_store_shard_members", "Live sharded-store membership, self included.", int64(m.StoreShardMembers))
	}

	fmt.Fprintf(&b, "# HELP grid_lease_wait_ms Queue wait from enqueue (or requeue) to lease grant.\n")
	fmt.Fprintf(&b, "# TYPE grid_lease_wait_ms histogram\n")
	cum := uint64(0)
	for i, ub := range latencyBucketsMS {
		cum += buckets[i]
		fmt.Fprintf(&b, "grid_lease_wait_ms_bucket{le=\"%g\"} %d\n", ub, cum)
	}
	cum += buckets[len(latencyBucketsMS)]
	fmt.Fprintf(&b, "grid_lease_wait_ms_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(&b, "grid_lease_wait_ms_sum %g\n", latSum)
	fmt.Fprintf(&b, "grid_lease_wait_ms_count %d\n", latCount)

	if len(stages) > 0 {
		fmt.Fprintf(&b, "# HELP grid_stage_ms Job lifecycle stage latency (admission, first_progress, exec, e2e).\n")
		fmt.Fprintf(&b, "# TYPE grid_stage_ms histogram\n")
		for _, ss := range stages {
			cum := uint64(0)
			for i, ub := range latencyBucketsMS {
				cum += ss.hist.buckets[i]
				fmt.Fprintf(&b, "grid_stage_ms_bucket{stage=%q,le=\"%g\"} %d\n", ss.stage, ub, cum)
			}
			cum += ss.hist.buckets[len(latencyBucketsMS)]
			fmt.Fprintf(&b, "grid_stage_ms_bucket{stage=%q,le=\"+Inf\"} %d\n", ss.stage, cum)
			fmt.Fprintf(&b, "grid_stage_ms_sum{stage=%q} %g\n", ss.stage, ss.hist.sumMS)
			fmt.Fprintf(&b, "grid_stage_ms_count{stage=%q} %d\n", ss.stage, ss.hist.count)
		}
	}

	if t := m.Trace; t != nil {
		gauge("grid_trace_ring_events", "Trace events currently held in the bounded ring.", int64(t.Events))
		gauge("grid_trace_ring_capacity", "Trace ring capacity.", int64(t.Capacity))
		counter("grid_trace_events_total", "Trace events ever recorded.", t.Total)
		counter("grid_trace_spill_dropped_total", "Trace events dropped by a lagging NDJSON spill.", t.SpillDropped)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}
