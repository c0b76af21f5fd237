package grid

import (
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fedMember is one federated server for tests: its Server, Federation
// and base URL (the listener's address — advertised to peers and dialed
// by loopback batches alike).
type fedMember struct {
	srv *Server
	fed *Federation
	url string
}

// fedListen reserves a port before anything serves on it: the member's
// URL must exist before its Server, store and Federation are built
// (peer URLs and the self URL are mutually recursive), and starting the
// HTTP server only after the Federation exists avoids ever serving a
// half-built member.
func fedListen(t *testing.T) (net.Listener, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return l, "http://" + l.Addr().String()
}

// startFedMember builds the member's Federation around srv and serves
// it on the reserved listener. Cleanup order (LIFO): the HTTP server
// and bare Server close first... registered here so the Federation —
// registered last — closes BEFORE the HTTP server, or Close would wait
// on loopback batch streams the HTTP server is still holding open.
func startFedMember(t *testing.T, srv *Server, l net.Listener, self string, peers []string) *fedMember {
	t.Helper()
	ts := httptest.NewUnstartedServer(nil)
	ts.Listener.Close()
	ts.Listener = l
	fed := NewFederation(srv, self, peers,
		WithAnnounceInterval(100*time.Millisecond),
		WithStealInterval(50*time.Millisecond))
	ts.Config.Handler = fed
	ts.Start()
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	t.Cleanup(fed.Close)
	return &fedMember{srv: srv, fed: fed, url: self}
}

// testFederation spins up n federated members sharing one cache tier
// (every member's in-memory store wrapped in a ShardedStore with
// replication 2 over the live membership), each seeded with every
// other member as a peer. Steal and announce intervals are short so
// tests converge fast.
func testFederation(t *testing.T, n int, srvOpts ...ServerOption) []*fedMember {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		listeners[i], urls[i] = fedListen(t)
	}
	members := make([]*fedMember, n)
	for i := range members {
		shard := NewShardedStore(NewStore(), urls[i], WithShardReplication(2))
		t.Cleanup(shard.Close)
		opts := append([]ServerOption{WithLeaseTTL(200 * time.Millisecond), WithStorage(shard)}, srvOpts...)
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		members[i] = startFedMember(t, NewServer(opts...), listeners[i], urls[i], peers)
		shard.SetMembership(members[i].fed.Peers)
	}
	return members
}

// TestFederationSteal submits a batch to a member with NO workers; the
// only workers in the federation hang off the other member, so every
// result must arrive via work stealing — and stay byte-identical.
func TestFederationSteal(t *testing.T) {
	members := testFederation(t, 2)
	loaded, idle := members[0], members[1]
	startWorker(t, idle.url, echoExec, 4)

	var tasks []Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks, mkTask(fmt.Sprintf("j%d", i), fmt.Sprintf("steal-%d", i)))
	}
	client := &Client{Server: loaded.url}
	ch, err := client.Submit(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	results := collectResults(t, ch)
	if len(results) != len(tasks) {
		t.Fatalf("got %d results, want %d", len(results), len(tasks))
	}
	for _, task := range tasks {
		tr := results[task.ID]
		if tr.Err != "" {
			t.Fatalf("task %s failed: %s", task.ID, tr.Err)
		}
		if string(tr.Payload) != string(task.Payload) {
			t.Fatalf("task %s: got %s, want %s", task.ID, tr.Payload, task.Payload)
		}
	}
	vm := loaded.srv.Metrics()
	if vm.StealsOut == 0 {
		t.Errorf("victim counts no steals out (metrics %+v)", vm)
	}
	if tm := idle.srv.Metrics(); tm.StealsIn == 0 {
		t.Errorf("thief counts no steals in (metrics %+v)", tm)
	}
	if vm.Completed+vm.CacheHits == 0 {
		t.Errorf("victim saw neither completions nor cache hits")
	}
}

// TestFederationHopBound pins the ping-pong defence: with maxHops=0
// impossible (option floor is 1)... a task granted at its hop bound is
// refused to thieves. Two members, zero workers anywhere: tasks stolen
// once (maxHops=1) must never be stolen back even though both members
// stay idle and hungry.
func TestFederationHopBound(t *testing.T) {
	members := testFederation(t, 2, WithMaxHops(1))
	a, b := members[0], members[1]

	// Give B free capacity without letting anything actually run: a
	// worker with a stalling exec occupies lease slots only when granted;
	// instead, register capacity via a raw lease poll.
	leaseRaw(t, b.url, "idle-b", 4)

	var tasks []Task
	for i := 0; i < 3; i++ {
		tasks = append(tasks, mkTask(fmt.Sprintf("h%d", i), fmt.Sprintf("hop-%d", i)))
	}
	client := &Client{Server: a.url}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := client.Submit(ctx, tasks); err != nil {
		t.Fatal(err)
	}

	// Wait for B to steal (tasks then sit leased to B, queued on B's own
	// server at hops=1).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if a.srv.Metrics().StealsOut > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if a.srv.Metrics().StealsOut == 0 {
		t.Fatal("no steal happened")
	}

	// Now A gets hungry too — but B's queued copies are at the hop bound
	// and must not travel. Watch B's Status: stealable must stay 0.
	leaseRaw(t, a.url, "idle-a", 4)
	time.Sleep(300 * time.Millisecond)
	if st := b.fed.Status(); st.Stealable != 0 {
		t.Errorf("hop-bound tasks advertised stealable: %+v", st)
	}
	if got := b.srv.Metrics().StealsOut; got != 0 {
		t.Errorf("hop-bound task stolen back (steals_out=%d)", got)
	}
}

// TestFederationSharedStoreRerun pins the federated cache tier: a batch
// run through member 0 (executed by member 1 via steals, results banked
// in the shared store) is 100% cache-served on a rerun — even submitted
// to the OTHER member, with every worker gone.
func TestFederationSharedStoreRerun(t *testing.T) {
	members := testFederation(t, 2)
	a, b := members[0], members[1]
	stop := startWorker(t, b.url, echoExec, 4)

	var tasks []Task
	for i := 0; i < 6; i++ {
		tasks = append(tasks, mkTask(fmt.Sprintf("r%d", i), fmt.Sprintf("rerun-%d", i)))
	}
	client := &Client{Server: a.url}
	ch, err := client.Submit(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	first := collectResults(t, ch)
	stop() // no workers anywhere now

	// Rerun against B: every result must come from the shared store.
	client = &Client{Server: b.url}
	ch, err = client.Submit(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	second := collectResults(t, ch)
	for _, task := range tasks {
		f, s := first[task.ID], second[task.ID]
		if f.Err != "" || s.Err != "" {
			t.Fatalf("task %s errored: %q / %q", task.ID, f.Err, s.Err)
		}
		if !s.Cached {
			t.Errorf("rerun task %s not cache-served", task.ID)
		}
		if string(f.Payload) != string(s.Payload) {
			t.Errorf("task %s: rerun bytes differ", task.ID)
		}
	}
}

// TestFederationGossip checks the mesh grows from a chain seed: C knows
// only B, B knows only A — after a few announce rounds everyone knows
// everyone.
func TestFederationGossip(t *testing.T) {
	mk := func(peers ...string) *fedMember {
		l, url := fedListen(t)
		return startFedMember(t, NewServer(WithLeaseTTL(200*time.Millisecond)), l, url, peers)
	}
	a := mk()
	b := mk(a.url)
	c := mk(b.url)

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(a.fed.Peers()) == 2 && len(b.fed.Peers()) == 2 && len(c.fed.Peers()) == 2 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for name, m := range map[string]*fedMember{"a": a, "b": b, "c": c} {
		if got := m.fed.Peers(); len(got) != 2 {
			t.Errorf("member %s knows peers %v, want 2", name, got)
		}
	}
	if a.srv.Metrics().Peers != 2 {
		t.Errorf("Peers gauge = %d, want 2", a.srv.Metrics().Peers)
	}
}

// TestFederationStealRace fans a large batch across two federated
// members under -race: every task exactly once, every byte right, no
// matter how steals interleave with local grants.
func TestFederationStealRace(t *testing.T) {
	members := testFederation(t, 2)
	a, b := members[0], members[1]
	var execs atomic.Int64
	exec := func(ctx context.Context, p []byte) ([]byte, error) {
		execs.Add(1)
		time.Sleep(time.Millisecond)
		return echoExec(ctx, p)
	}
	startWorker(t, a.url, exec, 2)
	startWorker(t, b.url, exec, 2)

	var tasks []Task
	for i := 0; i < 40; i++ {
		tasks = append(tasks, mkTask(fmt.Sprintf("x%d", i), fmt.Sprintf("race-%d", i)))
	}
	client := &Client{Server: a.url}
	ch, err := client.Submit(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	results := collectResults(t, ch)
	if len(results) != len(tasks) {
		t.Fatalf("got %d results, want %d", len(results), len(tasks))
	}
	for _, task := range tasks {
		tr := results[task.ID]
		if tr.Err != "" {
			t.Fatalf("task %s failed: %s", task.ID, tr.Err)
		}
		if string(tr.Payload) != string(task.Payload) {
			t.Fatalf("task %s bytes differ", task.ID)
		}
	}
}

// TestShardedStoreDegradesToMiss pins the remote-failure policy: a
// ShardedStore whose only other owner is gone misses on Get within the
// store client's deadline, sheds the replica Put without blocking
// (counted in DroppedPuts), and keeps exactly-one-miss accounting —
// never an error, never a hang.
func TestShardedStoreDegradesToMiss(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv)
	dead := ts.URL
	ts.Close() // peer is gone
	srv.Close()
	s := NewShardedStore(NewStore(), "http://self:1", WithShardReplication(2))
	defer s.Close()
	s.SetMembership(func() []string { return []string{dead} })

	start := time.Now()
	if _, ok := s.Get("sha256:00"); ok {
		t.Fatal("dead peer produced a hit")
	}
	if d := time.Since(start); d >= storeGetTimeout {
		t.Errorf("Get against a dead owner took %v, want under the %v deadline", d, storeGetTimeout)
	}
	start = time.Now()
	s.Put("sha256:00", []byte("x"))
	if d := time.Since(start); d >= storeGetTimeout {
		t.Errorf("Put blocked for %v on a dead owner", d)
	}
	if !s.Flush(10 * time.Second) {
		t.Fatal("replica put to the dead owner never settled")
	}
	if n := s.DroppedPuts(); n != 1 {
		t.Errorf("DroppedPuts = %d, want 1", n)
	}
	entries, hits, misses := s.Stats()
	if entries != 1 || hits != 0 || misses != 1 {
		t.Errorf("stats = %d/%d/%d, want 1 local entry, 0 hits, 1 miss", entries, hits, misses)
	}
}
