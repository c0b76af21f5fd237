package repro

// Golden-result regression test: a small committed binary trace is
// replayed under a pinned set of jobs and the resulting metrics are
// compared field-by-field against testdata/golden.json. Refactors of the
// core loop, the steering engine or the power plumbing cannot silently
// drift simulation output — an intentional behaviour change regenerates
// the goldens with
//
//	go test -run TestGoldenResults -update .
//
// The goldens pin the exact integer counters (the simulation is
// deterministic) and the energy estimate within a small relative
// tolerance (float accumulation order). They are generated on
// linux/amd64, the CI architecture; architectures with different
// floating-point contraction rules may steer adaptive runs differently.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/grid"
)

var update = flag.Bool("update", false, "rewrite the golden trace and results")

const (
	goldenTracePath = "testdata/golden.trace"
	goldenJSONPath  = "testdata/golden.json"
	goldenTraceUops = 1_500
	goldenRunUops   = 12_000
)

// goldenJobs is the pinned job set: one static rung per steering family
// plus each dynamic selector kind, all replaying the committed trace.
func goldenJobs(t *testing.T) []struct {
	Label  string
	Config Config
	Policy Policy
} {
	t.Helper()
	mk := func(name string) Policy {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return []struct {
		Label  string
		Config Config
		Policy Policy
	}{
		{"baseline", BaselineConfig(), PolicyBaseline()},
		{"full-static", HelperConfig(), mk("ir")},
		{"tournament", HelperConfig(), mk("dyn:tournament(cr,cp,ir,interval=2k,run=3)")},
		{"tournament-phased", HelperConfig(), mk("dyn:tournament(cr,cp,ir,interval=2k,run=3,phase=on)")},
		{"ucb-ipc", HelperConfig(), mk("dyn:ucb(cr,cp,ir,reward=ipc,interval=2k,c=1.4)")},
		{"ucb-ed2", HelperConfig(), mk("dyn:ucb(cr,cp,ir,reward=ed2,interval=2k,c=1.4)")},
	}
}

// goldenRung is the pinned slice of one usage row.
type goldenRung struct {
	Rung      string  `json:"rung"`
	Committed uint64  `json:"committed"`
	EnergyNJ  float64 `json:"energy_nj"`
}

// goldenRun is the pinned outcome of one job.
type goldenRun struct {
	Label         string       `json:"label"`
	Policy        string       `json:"policy"`
	Committed     uint64       `json:"committed"`
	WideCycles    uint64       `json:"wide_cycles"`
	SteeredHelper uint64       `json:"steered_helper"`
	CopiesCreated uint64       `json:"copies_created"`
	FatalFlushes  uint64       `json:"fatal_flushes"`
	SteeredSplit  uint64       `json:"steered_split"`
	EnergyNJ      float64      `json:"energy_nj"`
	Rungs         []goldenRung `json:"rungs,omitempty"`
}

// runGolden executes the pinned jobs against the committed trace.
func runGolden(t *testing.T) []goldenRun {
	t.Helper()
	var out []goldenRun
	for _, j := range goldenJobs(t) {
		r, err := RunTraceFile(j.Config, j.Policy, goldenTracePath, goldenRunUops)
		if err != nil {
			t.Fatalf("%s: %v", j.Label, err)
		}
		g := goldenRun{
			Label:         j.Label,
			Policy:        r.Policy,
			Committed:     r.Metrics.Committed,
			WideCycles:    r.Metrics.WideCycles,
			SteeredHelper: r.Metrics.SteeredHelper,
			CopiesCreated: r.Metrics.CopiesCreated,
			FatalFlushes:  r.Metrics.FatalFlushes,
			SteeredSplit:  r.Metrics.SteeredSplit,
			EnergyNJ:      EstimatePower(j.Config, r).EnergyNJ,
		}
		for _, u := range r.Rungs {
			g.Rungs = append(g.Rungs, goldenRung{Rung: u.Rung, Committed: u.Committed, EnergyNJ: u.EnergyNJ})
		}
		out = append(out, g)
	}
	return out
}

func TestGoldenResults(t *testing.T) {
	if *update {
		w := mustWorkload(t, "gcc")
		if err := os.MkdirAll(filepath.Dir(goldenTracePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := WriteTraceFile(goldenTracePath, w, goldenTraceUops); err != nil {
			t.Fatal(err)
		}
		got := runGolden(t)
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenJSONPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s and %s", goldenTracePath, goldenJSONPath)
		return
	}

	compareGolden(t, runGolden(t), loadGolden(t))
}

// loadGolden reads the committed golden results.
func loadGolden(t *testing.T) []goldenRun {
	t.Helper()
	data, err := os.ReadFile(goldenJSONPath)
	if err != nil {
		t.Fatalf("missing goldens (run `go test -run TestGoldenResults -update .`): %v", err)
	}
	var want []goldenRun
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// compareGolden checks a run set against the committed goldens with the
// exact-integer / tolerant-float rules described at the top of the file.
func compareGolden(t *testing.T, got, want []goldenRun) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("job set drifted: %d runs, goldens have %d (regenerate with -update)", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Label != w.Label || g.Policy != w.Policy {
			t.Errorf("run %d identity drifted: %s/%s vs golden %s/%s", i, g.Label, g.Policy, w.Label, w.Policy)
			continue
		}
		cmp := func(name string, got, want uint64) {
			if got != want {
				t.Errorf("%s: %s = %d, golden %d", g.Label, name, got, want)
			}
		}
		cmp("committed", g.Committed, w.Committed)
		cmp("wide_cycles", g.WideCycles, w.WideCycles)
		cmp("steered_helper", g.SteeredHelper, w.SteeredHelper)
		cmp("copies_created", g.CopiesCreated, w.CopiesCreated)
		cmp("fatal_flushes", g.FatalFlushes, w.FatalFlushes)
		cmp("steered_split", g.SteeredSplit, w.SteeredSplit)
		if !closeRel(g.EnergyNJ, w.EnergyNJ, 1e-9) {
			t.Errorf("%s: energy %g nJ, golden %g nJ", g.Label, g.EnergyNJ, w.EnergyNJ)
		}
		if len(g.Rungs) != len(w.Rungs) {
			t.Errorf("%s: %d usage rungs, golden %d", g.Label, len(g.Rungs), len(w.Rungs))
			continue
		}
		for k, u := range g.Rungs {
			if u.Rung != w.Rungs[k].Rung || u.Committed != w.Rungs[k].Committed {
				t.Errorf("%s rung %d: %s/%d, golden %s/%d",
					g.Label, k, u.Rung, u.Committed, w.Rungs[k].Rung, w.Rungs[k].Committed)
			}
			if !closeRel(u.EnergyNJ, w.Rungs[k].EnergyNJ, 1e-9) {
				t.Errorf("%s rung %d: energy %g, golden %g", g.Label, k, u.EnergyNJ, w.Rungs[k].EnergyNJ)
			}
		}
	}
}

// TestGoldenResultsGrid is the remote-execution golden gate: the pinned
// jobs travel as canonical Job JSON through a real grid — server, two
// worker processes' worth of in-process workers, lease protocol, NDJSON
// result stream — and the decoded Results must match the committed local
// goldens exactly, proving grid execution is bit-equivalent. A second
// submission must then be served entirely from the content-addressed
// store, still bit-equivalent.
func TestGoldenResultsGrid(t *testing.T) {
	if *update {
		t.Skip("goldens regenerate via TestGoldenResults -update")
	}
	want := loadGolden(t)

	srv := grid.NewServer(grid.WithLeaseTTL(5 * time.Second))
	ts := httptest.NewServer(srv)
	wctx, wcancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	// The worker side replays the committed trace, so the exec decodes
	// the wire Job and drives RunTraceFile — the same simulations the
	// local golden runs, behind the full wire protocol.
	exec := func(ctx context.Context, payload []byte) ([]byte, error) {
		var j Job
		if err := json.Unmarshal(payload, &j); err != nil {
			return nil, err
		}
		res, err := RunTraceFile(j.Config, j.Policy, goldenTracePath, j.N)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	}
	for i := 0; i < 2; i++ {
		w := &grid.Worker{Server: ts.URL, Name: fmt.Sprintf("gold%d", i), Exec: exec,
			Parallel: 2, LeaseWait: 100 * time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(wctx)
		}()
	}
	defer func() {
		wcancel()
		wg.Wait()
		ts.Close()
		srv.Close()
	}()

	jobs := goldenJobs(t)
	submit := func() []goldenRun {
		t.Helper()
		var tasks []grid.Task
		for i, j := range jobs {
			wire := Job{Name: j.Label, Config: j.Config, Policy: j.Policy, N: goldenRunUops}
			payload, err := json.Marshal(wire)
			if err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, grid.Task{ID: fmt.Sprintf("%d", i), Hash: grid.HashBytes(payload), Payload: payload})
		}
		client := &grid.Client{Server: ts.URL}
		ch, err := client.Submit(context.Background(), tasks)
		if err != nil {
			t.Fatal(err)
		}
		byID := map[string]Result{}
		for tr := range ch {
			if tr.Err != "" {
				t.Fatalf("grid golden task %s: %s", tr.ID, tr.Err)
			}
			var res Result
			if err := json.Unmarshal(tr.Payload, &res); err != nil {
				t.Fatalf("decoding grid golden result %s: %v", tr.ID, err)
			}
			byID[tr.ID] = res
		}
		var out []goldenRun
		for i, j := range jobs {
			r, ok := byID[fmt.Sprintf("%d", i)]
			if !ok {
				t.Fatalf("golden job %s never delivered", j.Label)
			}
			g := goldenRun{
				Label:         j.Label,
				Policy:        r.Policy,
				Committed:     r.Metrics.Committed,
				WideCycles:    r.Metrics.WideCycles,
				SteeredHelper: r.Metrics.SteeredHelper,
				CopiesCreated: r.Metrics.CopiesCreated,
				FatalFlushes:  r.Metrics.FatalFlushes,
				SteeredSplit:  r.Metrics.SteeredSplit,
				EnergyNJ:      EstimatePower(j.Config, r).EnergyNJ,
			}
			for _, u := range r.Rungs {
				g.Rungs = append(g.Rungs, goldenRung{Rung: u.Rung, Committed: u.Committed, EnergyNJ: u.EnergyNJ})
			}
			out = append(out, g)
		}
		return out
	}

	compareGolden(t, submit(), want)

	// Round two: all cache, still golden.
	misses := srv.Metrics().CacheMisses
	compareGolden(t, submit(), want)
	m := srv.Metrics()
	if m.CacheMisses != misses || m.CacheHits < uint64(len(jobs)) {
		t.Errorf("rerun was not served from the store: %+v", m)
	}
}

// TestGoldenResultsDiskRestart is the durability golden gate: the pinned
// jobs run through a grid server backed by an on-disk store, the server
// is then torn down SIGKILL-style (no store close, no flush — every Put
// must already be durable), and a fresh server on the same directory,
// with NO workers attached at all, must answer the resubmission 100%
// from the recovered cache, byte-identical to the committed goldens.
func TestGoldenResultsDiskRestart(t *testing.T) {
	if *update {
		t.Skip("goldens regenerate via TestGoldenResults -update")
	}
	want := loadGolden(t)
	dir := t.TempDir()

	exec := func(ctx context.Context, payload []byte) ([]byte, error) {
		var j Job
		if err := json.Unmarshal(payload, &j); err != nil {
			return nil, err
		}
		res, err := RunTraceFile(j.Config, j.Policy, goldenTracePath, j.N)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	}

	jobs := goldenJobs(t)
	mkTasks := func() []grid.Task {
		t.Helper()
		var tasks []grid.Task
		for i, j := range jobs {
			wire := Job{Name: j.Label, Config: j.Config, Policy: j.Policy, N: goldenRunUops}
			payload, err := json.Marshal(wire)
			if err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, grid.Task{ID: fmt.Sprintf("%d", i), Hash: grid.HashBytes(payload), Payload: payload})
		}
		return tasks
	}
	submit := func(url string) (map[string]Result, int) {
		t.Helper()
		client := &grid.Client{Server: url}
		ch, err := client.Submit(context.Background(), mkTasks())
		if err != nil {
			t.Fatal(err)
		}
		byID := map[string]Result{}
		cached := 0
		for tr := range ch {
			if tr.Err != "" {
				t.Fatalf("grid golden task %s: %s", tr.ID, tr.Err)
			}
			if tr.Cached {
				cached++
			}
			var res Result
			if err := json.Unmarshal(tr.Payload, &res); err != nil {
				t.Fatalf("decoding grid golden result %s: %v", tr.ID, err)
			}
			byID[tr.ID] = res
		}
		return byID, cached
	}
	toGolden := func(byID map[string]Result) []goldenRun {
		t.Helper()
		var out []goldenRun
		for i, j := range jobs {
			r, ok := byID[fmt.Sprintf("%d", i)]
			if !ok {
				t.Fatalf("golden job %s never delivered", j.Label)
			}
			g := goldenRun{
				Label:         j.Label,
				Policy:        r.Policy,
				Committed:     r.Metrics.Committed,
				WideCycles:    r.Metrics.WideCycles,
				SteeredHelper: r.Metrics.SteeredHelper,
				CopiesCreated: r.Metrics.CopiesCreated,
				FatalFlushes:  r.Metrics.FatalFlushes,
				SteeredSplit:  r.Metrics.SteeredSplit,
				EnergyNJ:      EstimatePower(j.Config, r).EnergyNJ,
			}
			for _, u := range r.Rungs {
				g.Rungs = append(g.Rungs, goldenRung{Rung: u.Rung, Committed: u.Committed, EnergyNJ: u.EnergyNJ})
			}
			out = append(out, g)
		}
		return out
	}

	// Round one: disk-backed server plus workers, simulated for real.
	st, err := grid.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := grid.NewServer(grid.WithLeaseTTL(5*time.Second), grid.WithStorage(st))
	ts := httptest.NewServer(srv)
	wctx, wcancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := &grid.Worker{Server: ts.URL, Name: fmt.Sprintf("dgold%d", i), Exec: exec,
			Parallel: 2, LeaseWait: 100 * time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(wctx)
		}()
	}
	byID, _ := submit(ts.URL)
	compareGolden(t, toGolden(byID), want)

	// SIGKILL-equivalent stop: workers and server vanish, the store is
	// never closed.
	wcancel()
	wg.Wait()
	ts.Close()
	srv.Close()

	// Round two: a cold server on the same directory, zero workers. Any
	// cache miss would queue forever, so a pass proves 100% hits.
	st2, err := grid.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	srv2 := grid.NewServer(grid.WithStorage(st2))
	ts2 := httptest.NewServer(srv2)
	defer func() {
		ts2.Close()
		srv2.Close()
	}()
	byID2, cached := submit(ts2.URL)
	if cached != len(jobs) {
		t.Fatalf("restarted server served %d of %d jobs from cache, want all", cached, len(jobs))
	}
	if m := srv2.Metrics(); m.CacheMisses != 0 {
		t.Fatalf("restarted server re-simulated: %+v", m)
	}
	compareGolden(t, toGolden(byID2), want)
}

// TestGoldenResultsFederation is the federated golden gate of ROADMAP
// item 1: two federated servers sharing one cache tier — each wraps its
// store (A's disk-backed, B's in memory) in a ShardedStore with
// replication 2 — where every worker hangs off B, so a batch submitted
// to A can only finish via work stealing. The results must stay
// byte-identical to the committed local goldens. Then B (workers and
// all) is torn down and the batch is resubmitted to A, which has ZERO
// workers: a pass proves the rerun is 100% served from the shared
// storage tier.
func TestGoldenResultsFederation(t *testing.T) {
	if *update {
		t.Skip("goldens regenerate via TestGoldenResults -update")
	}
	want := loadGolden(t)
	dir := t.TempDir()

	exec := func(ctx context.Context, payload []byte) ([]byte, error) {
		var j Job
		if err := json.Unmarshal(payload, &j); err != nil {
			return nil, err
		}
		res, err := RunTraceFile(j.Config, j.Policy, goldenTracePath, j.N)
		if err != nil {
			return nil, err
		}
		return json.Marshal(res)
	}

	// Reserve both members' addresses first: peer seeds, the shard
	// owners and each Federation's self URL all need them before
	// anything serves.
	listen := func() (net.Listener, string) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return l, "http://" + l.Addr().String()
	}
	lA, urlA := listen()
	lB, urlB := listen()
	serve := func(l net.Listener, fed *grid.Federation) *httptest.Server {
		ts := httptest.NewUnstartedServer(fed)
		ts.Listener.Close()
		ts.Listener = l
		ts.Start()
		return ts
	}

	// Member A: its shard sits on disk. Stays up the whole test.
	stA, err := grid.OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer stA.Close()
	shardA := grid.NewShardedStore(stA, urlA, grid.WithShardReplication(2))
	defer shardA.Close()
	srvA := grid.NewServer(grid.WithLeaseTTL(5*time.Second), grid.WithStorage(shardA))
	fedA := grid.NewFederation(srvA, urlA, []string{urlB},
		grid.WithAnnounceInterval(100*time.Millisecond),
		grid.WithStealInterval(50*time.Millisecond))
	shardA.SetMembership(fedA.Peers)
	tsA := serve(lA, fedA)
	defer func() {
		fedA.Close()
		tsA.Close()
		srvA.Close()
	}()

	// Member B: replicates its results to A, holds all the workers.
	shardB := grid.NewShardedStore(grid.NewStore(), urlB, grid.WithShardReplication(2))
	defer shardB.Close()
	srvB := grid.NewServer(grid.WithLeaseTTL(5*time.Second),
		grid.WithStorage(shardB))
	fedB := grid.NewFederation(srvB, urlB, []string{urlA},
		grid.WithAnnounceInterval(100*time.Millisecond),
		grid.WithStealInterval(50*time.Millisecond))
	shardB.SetMembership(fedB.Peers)
	tsB := serve(lB, fedB)
	wctx, wcancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := &grid.Worker{Server: urlB, Name: fmt.Sprintf("fgold%d", i), Exec: exec,
			Parallel: 2, LeaseWait: 100 * time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(wctx)
		}()
	}

	jobs := goldenJobs(t)
	mkTasks := func() []grid.Task {
		t.Helper()
		var tasks []grid.Task
		for i, j := range jobs {
			wire := Job{Name: j.Label, Config: j.Config, Policy: j.Policy, N: goldenRunUops}
			payload, err := json.Marshal(wire)
			if err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, grid.Task{ID: fmt.Sprintf("%d", i),
				Hash: grid.HashBytes(payload), Payload: payload, Profile: "p:golden"})
		}
		return tasks
	}
	submit := func(url string) (map[string]Result, int) {
		t.Helper()
		client := &grid.Client{Server: url}
		ch, err := client.Submit(context.Background(), mkTasks())
		if err != nil {
			t.Fatal(err)
		}
		byID := map[string]Result{}
		cached := 0
		for tr := range ch {
			if tr.Err != "" {
				t.Fatalf("federated golden task %s: %s", tr.ID, tr.Err)
			}
			if tr.Cached {
				cached++
			}
			var res Result
			if err := json.Unmarshal(tr.Payload, &res); err != nil {
				t.Fatalf("decoding federated golden result %s: %v", tr.ID, err)
			}
			byID[tr.ID] = res
		}
		return byID, cached
	}
	toGolden := func(byID map[string]Result) []goldenRun {
		t.Helper()
		var out []goldenRun
		for i, j := range jobs {
			r, ok := byID[fmt.Sprintf("%d", i)]
			if !ok {
				t.Fatalf("golden job %s never delivered", j.Label)
			}
			g := goldenRun{
				Label:         j.Label,
				Policy:        r.Policy,
				Committed:     r.Metrics.Committed,
				WideCycles:    r.Metrics.WideCycles,
				SteeredHelper: r.Metrics.SteeredHelper,
				CopiesCreated: r.Metrics.CopiesCreated,
				FatalFlushes:  r.Metrics.FatalFlushes,
				SteeredSplit:  r.Metrics.SteeredSplit,
				EnergyNJ:      EstimatePower(j.Config, r).EnergyNJ,
			}
			for _, u := range r.Rungs {
				g.Rungs = append(g.Rungs, goldenRung{Rung: u.Rung, Committed: u.Committed, EnergyNJ: u.EnergyNJ})
			}
			out = append(out, g)
		}
		return out
	}

	// Round one: submitted to A, which has no workers — every simulation
	// must travel to B by work stealing — and still golden.
	byID, _ := submit(urlA)
	compareGolden(t, toGolden(byID), want)
	if srvA.Metrics().StealsOut == 0 {
		t.Error("no steals recorded: the federation never moved the work")
	}

	// Kill member B — workers, federation, server — then resubmit to A.
	// A has zero workers, so a pass proves 100% shared-store hits.
	wcancel()
	wg.Wait()
	fedB.Close()
	tsB.Close()
	srvB.Close()

	byID2, cached := submit(urlA)
	if cached != len(jobs) {
		t.Fatalf("post-kill rerun served %d of %d jobs from the shared store, want all", cached, len(jobs))
	}
	compareGolden(t, toGolden(byID2), want)
}

// closeRel reports a ≈ b within relative tolerance (absolute near zero).
func closeRel(a, b, tol float64) bool {
	if a == b {
		return true
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den < 1 {
		return math.Abs(a-b) <= tol
	}
	return math.Abs(a-b)/den <= tol
}
