package grid

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Federation glues several grid servers into one tier. Each member
// wraps its own Server (with its own worker pool) in a Federation that
// speaks the peer protocol:
//
//   - /v1/peer/announce — membership gossip. A member periodically
//     announces its advertised URL to every peer it knows and merges
//     the peer lists it gets back, so a static -peers seed grows into
//     a full mesh and late joiners are discovered without restarts.
//   - /v1/peer/status — a load snapshot (queue depth, stealable tasks,
//     free capacity), consumed by peers deciding where to steal from.
//   - /v1/peer/steal — work stealing. An idle member asks the most
//     loaded peer for queued tasks; the victim answers with regular
//     lease grants under the worker name "peer:<thief URL>", attempt
//     tokens and all. The thief runs each stolen task through its own
//     server (a loopback batch — cache, coalescing and local workers
//     all apply), heartbeats the victim like any worker, and relays
//     the final result through /v1/complete with the stolen attempt
//     token. The victim's exactly-once discipline is untouched: first
//     success wins, stale aborts are ignored, and a thief that dies
//     just lets the lease expire and the task requeue.
//   - /v1/peer/release — steal handback. A thief whose loopback batch
//     was never admitted (its own server refused or died under it)
//     returns the lease with the stolen attempt token, and the victim
//     requeues immediately instead of waiting out the lease TTL.
//
// When the underlying Server was built WithPeerSecret, all four peer
// endpoints (plus the /v1/store tier) demand a valid X-Grid-Peer-Auth
// HMAC, and the Federation signs its own outbound peer traffic with the
// same secret — members holding different secrets refuse each other's
// gossip and never merge.
//
// The shared cache tier is the Storage seam, not the Federation: build
// every member's Server on a ShardedStore (wired to Peers through
// SetMembership), or on one shared DiskStore directory, and a result
// banked anywhere is a cache hit everywhere — including for stolen
// tasks, whose results are banked on both the thief (local run) and the
// victim (completion relay).
//
// A Federation is an http.Handler: serve it instead of the Server (it
// delegates every non-peer path).
type Federation struct {
	self   string
	server *Server
	httpc  *http.Client
	// secret mirrors the server's peer secret (WithPeerSecret): outbound
	// peer traffic is signed with it, inbound peer paths are gated on it.
	secret string

	announceEvery time.Duration
	stealEvery    time.Duration

	mu    sync.Mutex
	peers map[string]bool

	ctx       context.Context
	cancel    context.CancelFunc
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// FederationOption configures a Federation.
type FederationOption func(*Federation)

// WithAnnounceInterval sets the membership gossip period (default 2s).
func WithAnnounceInterval(d time.Duration) FederationOption {
	return func(f *Federation) {
		if d > 0 {
			f.announceEvery = d
		}
	}
}

// WithStealInterval sets how often an idle member looks for work to
// steal (default 500ms; tests shorten it to converge fast).
func WithStealInterval(d time.Duration) FederationOption {
	return func(f *Federation) {
		if d > 0 {
			f.stealEvery = d
		}
	}
}

// NewFederation federates server under the advertised base URL self
// (the address peers and the loopback batch reach it on), seeded with
// the given peer addresses. It starts the announce and steal loops;
// call Close to stop them. The caller still owns the Server.
func NewFederation(server *Server, self string, peers []string, opts ...FederationOption) *Federation {
	f := &Federation{
		self:          BaseURL(self),
		server:        server,
		httpc:         &http.Client{Timeout: 30 * time.Second},
		secret:        server.peerSecret,
		announceEvery: 2 * time.Second,
		stealEvery:    500 * time.Millisecond,
		peers:         map[string]bool{},
	}
	for _, o := range opts {
		o(f)
	}
	for _, p := range peers {
		f.addPeer(p)
	}
	f.ctx, f.cancel = context.WithCancel(context.Background())
	f.wg.Add(2)
	go f.announceLoop()
	go f.stealLoop()
	return f
}

// Close stops the announce and steal loops and abandons in-flight
// stolen work (the victims' leases expire and the tasks requeue). It is
// idempotent.
func (f *Federation) Close() {
	f.closeOnce.Do(f.cancel)
	f.wg.Wait()
}

// Self reports the advertised base URL.
func (f *Federation) Self() string { return f.self }

// Peers reports the known peer URLs, sorted.
func (f *Federation) Peers() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.peers))
	for p := range f.peers {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// addPeer records a peer URL, ignoring self and empties. It reports
// whether the set grew.
func (f *Federation) addPeer(addr string) bool {
	u := BaseURL(addr)
	if u == "" || u == f.self {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.peers[u] {
		return false
	}
	f.peers[u] = true
	f.server.SetPeerCount(len(f.peers))
	return true
}

// Status is the member's own load snapshot with identity and membership
// filled in.
func (f *Federation) Status() PeerStatus {
	st := f.server.Status()
	st.Self = f.self
	st.Peers = f.Peers()
	return st
}

// ServeHTTP handles the peer protocol and delegates everything else to
// the wrapped Server.
func (f *Federation) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case pathPeerAnnounce:
		if !f.server.requirePeerAuth(w, r) {
			return
		}
		var req announceRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("grid: bad announce: %v", err), http.StatusBadRequest)
			return
		}
		f.addPeer(req.Peer)
		writeJSON(w, announceResponse{Peers: append(f.Peers(), f.self)})
	case pathPeerStatus:
		if !f.server.requirePeerAuth(w, r) {
			return
		}
		writeJSON(w, f.Status())
	case pathPeerSteal:
		if !f.server.requirePeerAuth(w, r) {
			return
		}
		var req stealRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("grid: bad steal: %v", err), http.StatusBadRequest)
			return
		}
		f.addPeer(req.Peer)
		tasks, ttl := f.server.StealGrant(BaseURL(req.Peer), req.Max)
		writeJSON(w, leaseResponse{Tasks: tasks, LeaseMS: ttl})
	case pathPeerRelease:
		if !f.server.requirePeerAuth(w, r) {
			return
		}
		var req releaseRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("grid: bad release: %v", err), http.StatusBadRequest)
			return
		}
		writeJSON(w, releaseResponse{
			Released: f.server.ReleaseStolen(req.Peer, req.ID, req.Attempt)})
	default:
		f.server.ServeHTTP(w, r)
	}
}

// announceLoop gossips membership: announce self to every known peer,
// merge the peer lists that come back. Unreachable peers stay in the
// set — a crashed member may come back, and the steal loop already
// tolerates dead peers — so a kill -9 never wedges the survivors.
func (f *Federation) announceLoop() {
	defer f.wg.Done()
	for {
		for _, p := range f.Peers() {
			var resp announceResponse
			if err := f.post(p, pathPeerAnnounce, announceRequest{Peer: f.self}, &resp); err != nil {
				continue
			}
			for _, known := range resp.Peers {
				f.addPeer(known)
			}
		}
		if !sleepCtx(f.ctx, f.announceEvery) {
			return
		}
	}
}

// stealCandidate pairs one peer URL with its load snapshot for victim
// selection.
type stealCandidate struct {
	peer   string
	status PeerStatus
}

// pickVictim chooses the steal victim among peers advertising stealable
// work: the one whose worst still-queued batch ETA is largest, so the
// stolen cycles go to the batch that will finish last and shorten the
// federation's critical path. Peers publishing no ETA (uncalibrated, or
// queue-only load with no completions yet) rank below any positive ETA
// and among themselves by stealable depth — the pre-ETA behaviour. Ties
// break by stealable depth, then lexicographically smallest URL, so
// selection is deterministic. Returns the victim URL ("" when no peer
// qualifies) and its advertised stealable count.
func pickVictim(cands []stealCandidate) (string, int) {
	victim, avail := "", 0
	var bestEta int64 = -1
	for _, c := range cands {
		if c.status.Stealable < 1 {
			continue
		}
		eta := c.status.WorstEtaMS
		better := eta > bestEta ||
			(eta == bestEta && c.status.Stealable > avail) ||
			(eta == bestEta && c.status.Stealable == avail && (victim == "" || c.peer < victim))
		if better {
			victim, avail, bestEta = c.peer, c.status.Stealable, eta
		}
	}
	return victim, avail
}

// stealLoop watches for the idle-local/loaded-peer imbalance: when this
// member has free worker capacity and an empty queue, it steals from
// the peer whose published batch ETAs say it will finish last (see
// pickVictim).
func (f *Federation) stealLoop() {
	defer f.wg.Done()
	for {
		if !sleepCtx(f.ctx, f.stealEvery) {
			return
		}
		local := f.server.Status()
		if local.FreeCapacity < 1 || local.QueueDepth > 0 {
			continue
		}
		var cands []stealCandidate
		for _, p := range f.Peers() {
			st, err := f.peerStatus(p)
			if err != nil {
				continue
			}
			cands = append(cands, stealCandidate{peer: p, status: st})
		}
		victim, avail := pickVictim(cands)
		if victim == "" {
			continue
		}
		max := local.FreeCapacity
		if max > avail {
			max = avail
		}
		var resp leaseResponse
		if err := f.post(victim, pathPeerSteal, stealRequest{Peer: f.self, Max: max}, &resp); err != nil {
			continue
		}
		if len(resp.Tasks) == 0 {
			continue
		}
		f.server.NoteStealIn(len(resp.Tasks))
		ttl := time.Duration(resp.LeaseMS) * time.Millisecond
		for _, t := range resp.Tasks {
			f.wg.Add(1)
			go f.runStolen(victim, t, ttl)
		}
	}
}

// runStolen executes one stolen task through this member's own server —
// a loopback batch, so the shared cache, coalescing and the local
// worker pool all apply — while heartbeating the victim under the
// peer worker name, and relays the final result with the stolen
// attempt token. Transport-level failures relay nothing: the victim's
// lease expires and the task requeues, which is the safe outcome.
func (f *Federation) runStolen(victim string, t Task, ttl time.Duration) {
	defer f.wg.Done()
	ctx, cancel := context.WithCancel(f.ctx)
	defer cancel()
	peerName := PeerWorkerPrefix + f.self

	// Heartbeat the victim's lease while the local run is in flight. A
	// cancelled verdict aborts the local run; stale verdicts are ignored
	// (the victim may have reassigned the expired lease — our eventual
	// success is still banked and still wins if first).
	hbDone := make(chan struct{})
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		period := ttl / 3
		if period < 10*time.Millisecond {
			period = 10 * time.Millisecond
		}
		for {
			select {
			case <-hbDone:
				return
			case <-ctx.Done():
				return
			default:
			}
			var resp heartbeatResponse
			err := f.post(victim, pathHeartbeat, heartbeatRequest{Worker: peerName, Tasks: []string{t.ID}}, &resp)
			if err == nil {
				for _, id := range resp.Cancelled {
					if id == t.ID {
						cancel()
						return
					}
				}
			}
			timer := time.NewTimer(period)
			select {
			case <-hbDone:
				timer.Stop()
				return
			case <-ctx.Done():
				timer.Stop()
				return
			case <-timer.C:
			}
		}
	}()

	// The default transport, not f.httpc: a batch stream lives as long
	// as the simulation and must not be cut by the peer-RPC timeout.
	// The trace annotation records the steal hop in this member's ring
	// (the victim's task ID and hop count), so a merged trace shows the
	// job crossing the federation.
	client := &Client{Server: f.self,
		Trace: formatTraceOrigin(victim, t.ID, t.Hops)}
	ch, err := client.Submit(ctx, []Task{t})
	var final *TaskResult
	if err == nil {
		for tr := range ch {
			res := tr
			final = &res
		}
	}
	close(hbDone)
	if final == nil || strings.HasPrefix(final.Err, "grid: result stream ended early") {
		// Never ran (submit failed, cancelled, or the loopback stream
		// died): hand the lease back so the victim requeues immediately
		// instead of stranding the task until its TTL expires. The
		// release echoes the stolen attempt token — like /v1/complete —
		// so a stale handback after the lease moved on is a no-op. If
		// even the release cannot be delivered, lease expiry remains the
		// backstop.
		rel := releaseRequest{Peer: f.self, ID: t.ID, Attempt: t.Attempt}
		for attempt := 0; attempt < 3; attempt++ {
			var resp releaseResponse
			if err := f.post(victim, pathPeerRelease, rel, &resp); err == nil {
				return
			}
			if !sleepCtx(f.ctx, 200*time.Millisecond) {
				return
			}
		}
		return
	}
	comp := completeRequest{Worker: peerName, ID: t.ID, Hash: t.Hash,
		Attempt: t.Attempt, Result: final.Payload, Err: final.Err}
	// Retry like a worker: one dropped packet must not waste the run.
	for attempt := 0; attempt < 3; attempt++ {
		var resp completeResponse
		if err := f.post(victim, pathComplete, comp, &resp); err == nil {
			return
		}
		if !sleepCtx(f.ctx, 200*time.Millisecond) {
			return
		}
	}
}

func (f *Federation) peerStatus(peer string) (PeerStatus, error) {
	var st PeerStatus
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, peer+pathPeerStatus, nil)
	if err != nil {
		return st, err
	}
	if f.secret != "" {
		req.Header.Set(PeerAuthHeader,
			signPeerAuth(f.secret, http.MethodGet, pathPeerStatus, nil, time.Now()))
	}
	resp, err := f.httpc.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("grid: peer status: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, err
	}
	return st, nil
}

// post is the shared JSON POST helper of the peer protocol, addressed
// as base URL + path so the request can be signed over the exact path
// the receiver verifies.
func (f *Federation) post(base, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(f.ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if f.secret != "" {
		req.Header.Set(PeerAuthHeader,
			signPeerAuth(f.secret, http.MethodPost, path, body, time.Now()))
	}
	resp, err := f.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("grid: %s%s: %s", base, path, resp.Status)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}
