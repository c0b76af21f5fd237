package grid

import (
	"bytes"
	"crypto/sha256"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// defaultShardReplication is how many members own each hash unless
// WithShardReplication overrides it: two copies, so the death of any
// single peer loses no cached result.
const defaultShardReplication = 2

// ShardedStore shards one logical result store over the live federation
// membership, so no single member is the cache's point of failure. Each
// hash is rendezvous-hashed (highest random weight) over self plus the
// current peers, and its top replication-factor members own it.
//
//   - Put writes through to the local store synchronously (the producer
//     always keeps its own copy, and a Get right after a Put still
//     hits even with every peer down), then replicates to the remote
//     owners on their background put queues.
//   - Get serves local hits directly; on a local miss it asks the
//     hash's remote owners in rendezvous order. A remote hit is
//     read-repaired: adopted into the local store and re-replicated to
//     the other owners, so a replica lost with a dead peer is restored
//     the first time anyone asks for it.
//   - Membership is read live from the attached provider (SetMembership
//     wires Federation.Peers), so joiners start owning their share of
//     new hashes without restarts, and with no peers at all the store
//     degrades to plain local operation.
//
// Peer failure policy is the storeClient's: short Get deadlines, a
// cooldown breaker per peer, and counted (never blocking) dropped
// puts. Hit/miss counters are the ShardedStore's own — exactly one per
// Get, per the Storage contract — regardless of which tier answered.
type ShardedStore struct {
	local       Storage
	self        string
	replication int
	secret      string

	mu      sync.Mutex
	members func() []string
	clients map[string]*storeClient

	hits        uint64
	misses      uint64
	remoteHits  atomic.Uint64
	readRepairs atomic.Uint64
}

// ShardOption configures a ShardedStore.
type ShardOption func(*ShardedStore)

// WithShardReplication sets how many members own each hash (default 2;
// values below 1 are clamped to 1, which keeps only the owner copy and
// tolerates no deaths).
func WithShardReplication(n int) ShardOption {
	return func(s *ShardedStore) {
		if n < 1 {
			n = 1
		}
		s.replication = n
	}
}

// WithShardSecret signs every replica request with the federation's
// shared peer secret (see WithPeerSecret on the serving members).
func WithShardSecret(secret string) ShardOption {
	return func(s *ShardedStore) { s.secret = secret }
}

// NewShardedStore shards the federation's cache tier over its live
// membership, fronting local (this member's own store — memory or disk)
// under the advertised base URL self. Wire the membership with
// SetMembership after the Federation exists; until then the store is
// local-only. Call Close when done to stop the replica put workers.
func NewShardedStore(local Storage, self string, opts ...ShardOption) *ShardedStore {
	s := &ShardedStore{
		local:       local,
		self:        BaseURL(self),
		replication: defaultShardReplication,
		clients:     map[string]*storeClient{},
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// SetMembership attaches the live membership provider (typically
// Federation.Peers). The provider is called on every ownership decision
// and must be safe for concurrent use; self need not be in its answer.
func (s *ShardedStore) SetMembership(fn func() []string) {
	s.mu.Lock()
	s.members = fn
	s.mu.Unlock()
}

// Local exposes the wrapped local store (helperd's disk stats use it).
func (s *ShardedStore) Local() Storage { return s.local }

// owners ranks the live membership (self included) by rendezvous score
// for hash — sha256(hash + "|" + member), highest first, so every member
// ranks identically without coordination — and returns the top
// replication-factor members. With no membership attached or no live
// peers the answer is just self: plain local operation.
func (s *ShardedStore) owners(hash string) []string {
	s.mu.Lock()
	fn := s.members
	s.mu.Unlock()
	members := []string{s.self}
	if fn != nil {
		for _, p := range fn() {
			if u := BaseURL(p); u != "" && u != s.self {
				members = append(members, u)
			}
		}
	}
	if len(members) > 1 {
		scores := make(map[string][sha256.Size]byte, len(members))
		for _, m := range members {
			scores[m] = sha256.Sum256([]byte(hash + "|" + m))
		}
		sort.SliceStable(members, func(i, j int) bool {
			a, b := scores[members[i]], scores[members[j]]
			return bytes.Compare(a[:], b[:]) > 0
		})
	}
	if len(members) > s.replication {
		members = members[:s.replication]
	}
	return members
}

// client returns (lazily creating) the storeClient for one member.
func (s *ShardedStore) client(member string) *storeClient {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.clients[member]
	if c == nil {
		c = newStoreClient(member, s.secret)
		s.clients[member] = c
	}
	return c
}

// Get serves hash from the local store, falling back to the remote
// owners in rendezvous order; a remote hit is read-repaired into the
// local store and re-replicated. Exactly one hit or miss is counted.
func (s *ShardedStore) Get(hash string) ([]byte, bool) {
	if hash == "" {
		s.countGet(false)
		return nil, false
	}
	if payload, ok := s.local.Get(hash); ok {
		s.countGet(true)
		return payload, true
	}
	for _, owner := range s.owners(hash) {
		if owner == s.self {
			continue // the local store already missed
		}
		payload, ok := s.client(owner).get(hash)
		if !ok {
			continue
		}
		s.remoteHits.Add(1)
		s.countGet(true)
		// Read-repair: adopt locally and re-fill any owner that lost its
		// copy (first write wins everywhere, so over-repair is harmless).
		s.local.Put(hash, payload)
		s.readRepairs.Add(1)
		for _, other := range s.owners(hash) {
			if other != s.self && other != owner {
				s.client(other).putAsync(hash, payload)
			}
		}
		return payload, true
	}
	s.countGet(false)
	return nil, false
}

func (s *ShardedStore) countGet(hit bool) {
	s.mu.Lock()
	if hit {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
}

// Put writes through to the local store and replicates to the hash's
// remote owners in the background (empty hash ignored, first write wins
// everywhere).
func (s *ShardedStore) Put(hash string, payload []byte) {
	if hash == "" {
		return
	}
	s.local.Put(hash, payload)
	for _, owner := range s.owners(hash) {
		if owner != s.self {
			s.client(owner).putAsync(hash, payload)
		}
	}
}

// Stats reports the local entry count and this store's own hit/miss
// counters (the local store's internal counters are not consulted — a
// ShardedStore Get is one lookup regardless of tier).
func (s *ShardedStore) Stats() (entries int, hits, misses uint64) {
	entries, _, _ = s.local.Stats()
	s.mu.Lock()
	hits, misses = s.hits, s.misses
	s.mu.Unlock()
	return entries, hits, misses
}

// ShardStatsSnapshot is the sharded tier's self-report for /metrics.
type ShardStatsSnapshot struct {
	// Members is the live membership size, self included.
	Members int
	// Replication is the configured owner count per hash.
	Replication int
	RemoteHits  uint64
	ReadRepairs uint64
	DroppedPuts uint64
}

// ShardStats snapshots the sharding counters and configuration.
func (s *ShardedStore) ShardStats() ShardStatsSnapshot {
	s.mu.Lock()
	fn := s.members
	clients := make([]*storeClient, 0, len(s.clients))
	for _, c := range s.clients {
		clients = append(clients, c)
	}
	s.mu.Unlock()
	st := ShardStatsSnapshot{
		Members:     1,
		Replication: s.replication,
		RemoteHits:  s.remoteHits.Load(),
		ReadRepairs: s.readRepairs.Load(),
	}
	if fn != nil {
		st.Members += len(fn())
	}
	for _, c := range clients {
		st.DroppedPuts += c.droppedPuts()
	}
	return st
}

// DroppedPuts reports background replica writes shed across all peers
// (surfaced as store_puts_dropped in /metrics).
func (s *ShardedStore) DroppedPuts() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, c := range s.clients {
		n += c.droppedPuts()
	}
	return n
}

// Flush waits until every peer's pending replica puts drain or timeout
// elapses, reporting whether they all landed (tests and graceful
// shutdown; hot paths never need it).
func (s *ShardedStore) Flush(timeout time.Duration) bool {
	s.mu.Lock()
	clients := make([]*storeClient, 0, len(s.clients))
	for _, c := range s.clients {
		clients = append(clients, c)
	}
	s.mu.Unlock()
	deadline := time.Now().Add(timeout)
	ok := true
	for _, c := range clients {
		remaining := time.Until(deadline)
		if remaining < 0 {
			remaining = 0
		}
		ok = c.flush(remaining) && ok
	}
	return ok
}

// Close stops every peer's put worker, shedding still-queued writes.
func (s *ShardedStore) Close() {
	s.mu.Lock()
	clients := make([]*storeClient, 0, len(s.clients))
	for _, c := range s.clients {
		clients = append(clients, c)
	}
	s.mu.Unlock()
	for _, c := range clients {
		c.close()
	}
}
