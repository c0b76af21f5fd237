package grid

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// traceEvents drains a server's ring for one id, failing the test when
// tracing is off.
func traceEvents(t *testing.T, s *Server, id string) []TraceEvent {
	t.Helper()
	tr := s.Tracer()
	if tr == nil {
		t.Fatal("server has no tracer (tracing disabled)")
	}
	return tr.Events(id)
}

// TestTraceLocalLifecycle pins the exec span tree of a job that runs
// locally: admitted → enqueued → leased → completed, monotonic, with
// the lease carrying the worker identity, and the reconstructed
// durations all observed.
func TestTraceLocalLifecycle(t *testing.T) {
	srv, ts := testGrid(t)
	startWorker(t, ts.URL, echoExec, 2)
	c := &Client{Server: ts.URL}
	task := mkTask("0", "trace-local")
	ch, err := c.Submit(context.Background(), []Task{task})
	if err != nil {
		t.Fatal(err)
	}
	collectResults(t, ch)

	evs := traceEvents(t, srv, task.Hash)
	if err := ValidateTrace(evs, TraceKindExec); err != nil {
		t.Fatalf("exec trace does not validate: %v\nevents: %+v", err, evs)
	}
	SortEvents(evs)
	var stages []string
	for _, ev := range evs {
		stages = append(stages, ev.Stage)
		if ev.Stage == StageLeased && ev.Worker == "" {
			t.Errorf("leased event carries no worker: %+v", ev)
		}
		if ev.Trace != task.Hash {
			t.Errorf("event trace %q, want %q", ev.Trace, task.Hash)
		}
	}
	order := strings.Join(stages, ",")
	for _, sub := range []string{StageAdmitted, StageEnqueued, StageLeased, StageCompleted} {
		if !strings.Contains(order, sub) {
			t.Fatalf("stage %s missing from %s", sub, order)
		}
	}
	if i, j := strings.Index(order, StageAdmitted), strings.Index(order, StageCompleted); i > j {
		t.Fatalf("admitted after completed: %s", order)
	}
	d := Durations(evs)
	if d.Admission < 0 || d.Queue < 0 || d.Exec < 0 || d.EndToEnd < 0 {
		t.Fatalf("exec trace has unobserved spans: %+v", d)
	}
	if d.EndToEnd < d.Exec {
		t.Fatalf("end-to-end %s shorter than exec %s", d.EndToEnd, d.Exec)
	}
	// The same events are reachable by task ID and batch ID.
	if got := traceEvents(t, srv, evs[0].Batch); len(got) == 0 {
		t.Error("no events found by batch ID")
	}
}

// TestTraceCacheHit resubmits an already-banked job and checks the
// trace validates as cached: the latest admission is answered by the
// store with no lease (zero exec span) after it.
func TestTraceCacheHit(t *testing.T) {
	srv, ts := testGrid(t)
	startWorker(t, ts.URL, echoExec, 2)
	c := &Client{Server: ts.URL}
	task := mkTask("0", "trace-cached")
	for i := 0; i < 2; i++ {
		ch, err := c.Submit(context.Background(), []Task{task})
		if err != nil {
			t.Fatal(err)
		}
		collectResults(t, ch)
	}
	evs := traceEvents(t, srv, task.Hash)
	if err := ValidateTrace(evs, TraceKindCached); err != nil {
		t.Fatalf("cached trace does not validate: %v\nevents: %+v", err, evs)
	}
	hits := 0
	for _, ev := range evs {
		if ev.Stage == StageCacheHit {
			hits++
		}
	}
	if hits != 1 {
		t.Fatalf("got %d cache_hit events, want 1", hits)
	}
}

// TestTraceCrossPeer submits to a federated member with no workers of
// its own: the job is stolen, and the merged victim+thief event set
// must reconstruct the hop — steal-out on the victim, steal-in on the
// thief, both naming the other peer — and validate as a stolen trace.
func TestTraceCrossPeer(t *testing.T) {
	members := testFederation(t, 2)
	loaded, idle := members[0], members[1]
	startWorker(t, idle.url, echoExec, 2)

	task := mkTask("j0", "trace-steal")
	client := &Client{Server: loaded.url}
	ch, err := client.Submit(context.Background(), []Task{task})
	if err != nil {
		t.Fatal(err)
	}
	collectResults(t, ch)

	victim := traceEvents(t, loaded.srv, task.Hash)
	thief := traceEvents(t, idle.srv, task.Hash)
	for i := range victim {
		victim[i].Source = loaded.url
	}
	for i := range thief {
		thief[i].Source = idle.url
	}
	merged := append(append([]TraceEvent{}, victim...), thief...)
	if err := ValidateTrace(merged, TraceKindStolen); err != nil {
		t.Fatalf("stolen trace does not validate: %v\nevents: %+v", err, merged)
	}
	var out, in *TraceEvent
	for i := range merged {
		ev := &merged[i]
		if ev.Stage != StageStolen {
			continue
		}
		switch ev.Detail {
		case "out":
			out = ev
		case "in":
			in = ev
		}
	}
	if out == nil || in == nil {
		t.Fatalf("missing steal-out/steal-in pair in %+v", merged)
	}
	if out.Source != loaded.url || out.Peer != idle.url {
		t.Errorf("steal-out source=%s peer=%s, want source=%s peer=%s", out.Source, out.Peer, loaded.url, idle.url)
	}
	if in.Source != idle.url || in.Peer != loaded.url {
		t.Errorf("steal-in source=%s peer=%s, want source=%s peer=%s", in.Source, in.Peer, idle.url, loaded.url)
	}
}

// TestTraceRingBoundedUnderChurn hammers a tiny ring from concurrent
// batches while polling Stats, pinning the boundedness invariant: the
// ring never holds more than its capacity no matter the churn. Run
// under -race this also exercises the tracer's locking.
func TestTraceRingBoundedUnderChurn(t *testing.T) {
	const cap = 64
	srv, ts := testGrid(t, WithLeaseTTL(time.Second), WithTrace(cap))
	startWorker(t, ts.URL, echoExec, 4)

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	pollers.Add(1)
	go func() {
		defer pollers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := srv.Tracer().Stats()
			if st.Events > st.Capacity {
				t.Errorf("ring overflow: %d events > capacity %d", st.Events, st.Capacity)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := &Client{Server: ts.URL}
			for i := 0; i < 10; i++ {
				tasks := []Task{
					mkTask("a", fmt.Sprintf("churn-%d-%d-a", g, i)),
					mkTask("b", fmt.Sprintf("churn-%d-%d-b", g, i)),
				}
				ch, err := c.Submit(context.Background(), tasks)
				if err != nil {
					t.Error(err)
					return
				}
				for range ch {
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	pollers.Wait()

	st := srv.Tracer().Stats()
	if st.Events > st.Capacity || st.Capacity != cap {
		t.Fatalf("final ring state %+v, want <= capacity %d", st, cap)
	}
	if st.Total <= uint64(cap) {
		t.Fatalf("churn recorded only %d events — not enough to wrap a %d-slot ring", st.Total, cap)
	}
}

// TestTraceDisabled pins the off switch: WithTrace(-1) removes the
// tracer, /v1/trace 404s, and /metrics omits the trace stats.
func TestTraceDisabled(t *testing.T) {
	srv, ts := testGrid(t, WithLeaseTTL(time.Second), WithTrace(-1))
	if srv.Tracer() != nil {
		t.Fatal("WithTrace(-1) left a tracer behind")
	}
	resp, err := http.Get(ts.URL + pathTrace)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/trace on a disabled server: %d, want 404", resp.StatusCode)
	}
	if m := srv.Metrics(); m.Trace != nil {
		t.Fatalf("metrics still report trace stats: %+v", m.Trace)
	}
}

// TestTraceEndpointAndDashboard checks the HTTP surface: /v1/trace
// lists summaries and answers id queries, and /dashboard serves the
// self-contained HTML page.
func TestTraceEndpointAndDashboard(t *testing.T) {
	_, ts := testGrid(t)
	startWorker(t, ts.URL, echoExec, 2)
	c := &Client{Server: ts.URL}
	task := mkTask("0", "trace-http")
	ch, err := c.Submit(context.Background(), []Task{task})
	if err != nil {
		t.Fatal(err)
	}
	collectResults(t, ch)

	evs, err := c.TraceEvents(context.Background(), task.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(evs, TraceKindExec); err != nil {
		t.Fatalf("events over HTTP do not validate: %v", err)
	}
	sums, err := c.TraceList(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 1 || sums[0].Trace != task.Hash {
		t.Fatalf("trace list %+v, want exactly %s", sums, task.Hash)
	}
	if sums[0].Events != len(evs) {
		t.Errorf("summary counts %d events, id query returned %d", sums[0].Events, len(evs))
	}

	resp, err := http.Get(ts.URL + pathDashboard)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/dashboard: %d, want 200", resp.StatusCode)
	}
	page := string(body)
	if !strings.Contains(page, "<html") || !strings.Contains(page, pathMetrics) {
		t.Fatalf("/dashboard does not look like the live page: %.120s", page)
	}
}

// TestTraceSpill streams a tracer's events to an NDJSON writer and
// checks every record arrives intact once Close flushes.
func TestTraceSpill(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(4) // smaller than the event count: the ring drops, the spill must not
	tr.SetSpill(&buf)
	const n = 16
	for i := 0; i < n; i++ {
		tr.Record(TraceEvent{Trace: "sha256:spill", Stage: StageProgress, Uops: uint64(i)})
	}
	tr.Close()

	var got []TraceEvent
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		got = append(got, ev)
	}
	dropped := tr.Stats().SpillDropped
	if uint64(len(got))+dropped != n {
		t.Fatalf("spilled %d + dropped %d, want %d total", len(got), dropped, n)
	}
	if len(got) == 0 {
		t.Fatal("spill wrote nothing")
	}
	if got[0].TimeNS == 0 {
		t.Error("spilled event was not timestamped")
	}
}

// TestLeasePollEmpty pins the idle-poll counter: a worker polling an
// empty queue drives lease_poll_empty up without granting anything.
func TestLeasePollEmpty(t *testing.T) {
	srv, ts := testGrid(t, WithLeaseTTL(time.Second))
	startWorker(t, ts.URL, echoExec, 1)
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := srv.Metrics()
		if m.LeasePollEmpty > 0 {
			if m.LeasesGranted != 0 {
				t.Fatalf("leases granted on an empty queue: %+v", m)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no empty lease polls counted: %+v", m)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestStageHistograms checks that a completed job lands in the server's
// per-stage latency summaries and that the Prometheus exposition grew
// the grid_stage_ms histogram and the empty-poll counter.
func TestStageHistograms(t *testing.T) {
	srv, ts := testGrid(t, WithLeaseTTL(time.Second))
	startWorker(t, ts.URL, echoExec, 2)
	c := &Client{Server: ts.URL}
	ch, err := c.Submit(context.Background(), []Task{mkTask("0", "trace-stages")})
	if err != nil {
		t.Fatal(err)
	}
	collectResults(t, ch)

	m := srv.Metrics()
	for _, stage := range []string{"admission", "exec", "e2e"} {
		s, ok := m.Stages[stage]
		if !ok || s.Count == 0 {
			t.Errorf("stage %s has no observations: %+v", stage, m.Stages)
		}
	}
	if m.Trace == nil || m.Trace.Total == 0 {
		t.Fatalf("metrics carry no trace stats: %+v", m.Trace)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+pathMetrics, nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	prom := string(raw)
	for _, want := range []string{
		`grid_stage_ms_bucket{stage="e2e",le="+Inf"}`,
		`grid_stage_ms_count{stage="exec"}`,
		"grid_lease_poll_empty_total",
		"grid_trace_ring_events",
		"grid_trace_events_total",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}
}

// TestValidateTraceKinds walks ValidateTrace's refusal edges with
// hand-built event sets.
func TestValidateTraceKinds(t *testing.T) {
	at := func(ns int64, stage string, mut ...func(*TraceEvent)) TraceEvent {
		ev := TraceEvent{Trace: "sha256:v", Stage: stage, TimeNS: ns}
		for _, m := range mut {
			m(&ev)
		}
		return ev
	}
	exec := []TraceEvent{
		at(1, StageAdmitted), at(2, StageEnqueued), at(3, StageLeased), at(5, StageCompleted),
	}
	cases := []struct {
		name    string
		evs     []TraceEvent
		kind    string
		wantErr string
	}{
		{"empty", nil, "", "no events"},
		{"no terminal", exec[:3], "", "no terminal"},
		{"exec ok", exec, TraceKindExec, ""},
		{"exec failed terminal", []TraceEvent{
			at(1, StageAdmitted), at(2, StageEnqueued), at(3, StageLeased), at(5, StageFailed),
		}, TraceKindExec, "terminal is failed"},
		{"exec missing lease", []TraceEvent{
			at(1, StageAdmitted), at(2, StageEnqueued), at(5, StageCompleted),
		}, TraceKindExec, "missing leased"},
		{"not monotonic", []TraceEvent{
			at(5, StageAdmitted), at(2, StageEnqueued), at(3, StageLeased), at(6, StageCompleted),
		}, "", "not monotonic"},
		{"cached ok", []TraceEvent{
			at(1, StageAdmitted), at(2, StageEnqueued), at(3, StageLeased), at(5, StageCompleted),
			at(10, StageAdmitted), at(11, StageCacheHit),
		}, TraceKindCached, ""},
		{"cached but re-leased", []TraceEvent{
			at(1, StageAdmitted), at(2, StageCacheHit), at(3, StageLeased), at(5, StageCompleted),
		}, TraceKindCached, "exec span not zero"},
		{"stolen ok", []TraceEvent{
			at(1, StageAdmitted), at(2, StageEnqueued),
			at(3, StageStolen, func(e *TraceEvent) { e.Peer = "http://thief"; e.Detail = "out" }),
			at(4, StageLeased), at(5, StageCompleted),
		}, TraceKindStolen, ""},
		{"stolen without peer", []TraceEvent{
			at(1, StageAdmitted), at(2, StageStolen), at(5, StageCompleted),
		}, TraceKindStolen, "no peer"},
		{"stolen without hop", exec, TraceKindStolen, "no stolen event"},
		{"unknown kind", exec, "bogus", "unknown trace kind"},
	}
	for _, tc := range cases {
		err := ValidateTrace(tc.evs, tc.kind)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestDurationsUnobserved pins the -1 convention for spans whose
// endpoints were never recorded.
func TestDurationsUnobserved(t *testing.T) {
	d := Durations([]TraceEvent{
		{Trace: "sha256:d", Stage: StageAdmitted, TimeNS: 10},
		{Trace: "sha256:d", Stage: StageCacheHit, TimeNS: 25},
	})
	if d.EndToEnd != 15 {
		t.Errorf("end-to-end %d, want 15", d.EndToEnd)
	}
	for name, v := range map[string]time.Duration{
		"admission": d.Admission, "queue": d.Queue,
		"first_progress": d.FirstProgress, "exec": d.Exec,
	} {
		if v >= 0 {
			t.Errorf("span %s = %s, want unobserved (-1)", name, v)
		}
	}
}

// TestTraceOriginRoundTrip pins the X-Grid-Trace steal annotation
// format both ways, and that foreign headers (a worker's bare hash
// echo) are not mistaken for one.
func TestTraceOriginRoundTrip(t *testing.T) {
	h := formatTraceOrigin("http://victim:1", "t42", 3)
	o, ok := parseTraceOrigin(h)
	if !ok || o.peer != "http://victim:1" || o.task != "t42" || o.hop != 3 {
		t.Fatalf("round trip gave %+v ok=%v from %q", o, ok, h)
	}
	for _, foreign := range []string{"", "sha256:abcd", "task=t1;hop=2"} {
		if _, ok := parseTraceOrigin(foreign); ok {
			t.Errorf("foreign header %q parsed as a steal origin", foreign)
		}
	}
}
