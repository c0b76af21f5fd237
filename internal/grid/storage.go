package grid

// Storage is the pluggable content-addressed result store behind a
// Server: canonical job hash → result payload bytes, stored verbatim so
// cache hits are byte-identical to the worker's original answer.
//
// Three implementations ship with the package: the in-memory Store
// (the default — a restart forgets everything), the crash-safe
// DiskStore (a server restarted on the same directory keeps its cache;
// co-located peers may share one directory), and the ShardedStore (the
// federation's shared cache tier: hashes rendezvous-sharded over the
// live membership with replication).
//
// Contract, shared by all and pinned by TestStorageContract:
//
//   - Only successful results are stored; callers must never Put a
//     failure payload (a transient error must not poison a sweep point).
//   - First write wins: a hash is a complete description of a
//     deterministic simulation, so any two results for it are identical
//     and re-storing is pointless.
//   - Put with an empty hash is a no-op.
//   - Get counts exactly one hit or one miss per call.
//
// Implementations must be safe for concurrent use: the Server calls Get
// and Put outside its own lock (disk I/O must not stall the lease and
// heartbeat handlers), so concurrent Gets, Puts and Stats all happen.
type Storage interface {
	// Get returns the stored payload for hash, counting the lookup as a
	// hit or a miss.
	Get(hash string) ([]byte, bool)
	// Put stores a successful result payload under hash (first write
	// wins, empty hash ignored).
	Put(hash string, payload []byte)
	// Stats reports the entry count and the hit/miss counters.
	Stats() (entries int, hits, misses uint64)
}

var (
	_ Storage = (*Store)(nil)
	_ Storage = (*DiskStore)(nil)
	_ Storage = (*ShardedStore)(nil)
)
