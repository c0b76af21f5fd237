package grid

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// Store-tier failure policy knobs. The store is a cache: a slow or dead
// peer must degrade lookups into misses and writes into drops, never
// stall the admission path or a completing worker.
const (
	// storeGetTimeout bounds one remote lookup. Short on purpose: a Get
	// sits on the batch admission path, where a wedged peer may cost a
	// short timeout but never a stall.
	storeGetTimeout = 2 * time.Second
	// storePutTimeout bounds one background write; generous, since puts
	// run off the hot path on the put worker goroutine.
	storePutTimeout = 10 * time.Second
	// storePutQueue bounds the background put backlog per peer; overflow
	// is dropped and counted instead of blocking the completion path.
	storePutQueue = 256
	// storeCooldown is how long a peer is considered down after a
	// transport failure, so a dead replica costs one timeout per
	// cooldown window instead of one per lookup.
	storeCooldown = 3 * time.Second
)

// storeClient speaks one peer's /v1/store endpoints with that policy:
// short synchronous Gets, background bounded-queue Puts whose overflow
// and failures are counted in dropped, a cooldown breaker after any
// transport failure, and optional request signing (see PeerAuthHeader).
// ShardedStore keeps one per live member.
type storeClient struct {
	base   string
	secret string
	getc   *http.Client // bounds one Get
	putc   *http.Client // bounds one background Put

	queue   chan storePut
	pending atomic.Int64 // queued + in-flight puts, for flush
	dropped atomic.Uint64

	started sync.Once
	stopped sync.Once
	done    chan struct{}
	wg      sync.WaitGroup

	mu        sync.Mutex
	downUntil time.Time
}

type storePut struct {
	hash    string
	payload []byte
}

func newStoreClient(addr, secret string) *storeClient {
	return &storeClient{
		base:   BaseURL(addr),
		secret: secret,
		getc:   &http.Client{Timeout: storeGetTimeout},
		putc:   &http.Client{Timeout: storePutTimeout},
		queue:  make(chan storePut, storePutQueue),
		done:   make(chan struct{}),
	}
}

// available reports whether the peer is outside its failure cooldown.
func (c *storeClient) available() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !time.Now().Before(c.downUntil)
}

func (c *storeClient) markDown() {
	c.mu.Lock()
	c.downUntil = time.Now().Add(storeCooldown)
	c.mu.Unlock()
}

func (c *storeClient) sign(req *http.Request, path string, body []byte) {
	if c.secret != "" {
		req.Header.Set(PeerAuthHeader,
			signPeerAuth(c.secret, req.Method, path, body, time.Now()))
	}
}

// get fetches one payload; any transport or HTTP error is a miss (a
// transport failure additionally opens the cooldown breaker). It first
// waits briefly for this client's own pending puts to drain, so a Get
// racing the background write of the same instance still reads its own
// write — the Storage contract tests and 100%-cached reruns rely on it.
func (c *storeClient) get(hash string) ([]byte, bool) {
	if hash == "" {
		return nil, false
	}
	c.flush(500 * time.Millisecond)
	if !c.available() {
		return nil, false
	}
	path := pathStoreGet + "?hash=" + url.QueryEscape(hash)
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, false
	}
	c.sign(req, path, nil)
	resp, err := c.getc.Do(req)
	if err != nil {
		c.markDown()
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, false
	}
	payload, err := io.ReadAll(io.LimitReader(resp.Body, maxStorePayload))
	if err != nil {
		return nil, false
	}
	return payload, true
}

// putAsync enqueues one background write. A full queue or a closed
// client drops the put and counts it; the caller never blocks.
func (c *storeClient) putAsync(hash string, payload []byte) {
	if hash == "" {
		return
	}
	select {
	case <-c.done:
		c.dropped.Add(1)
		return
	default:
	}
	c.started.Do(func() {
		c.wg.Add(1)
		go c.putLoop()
	})
	c.pending.Add(1)
	select {
	case c.queue <- storePut{hash: hash, payload: payload}:
	default:
		c.pending.Add(-1)
		c.dropped.Add(1)
	}
}

func (c *storeClient) putLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			// Shed whatever is still queued so Close never hangs on a
			// slow peer; the drops are counted like any other.
			for {
				select {
				case <-c.queue:
					c.pending.Add(-1)
					c.dropped.Add(1)
				default:
					return
				}
			}
		case p := <-c.queue:
			if !c.available() || !c.put(p.hash, p.payload) {
				c.dropped.Add(1)
			}
			c.pending.Add(-1)
		}
	}
}

// put performs one synchronous write; false on any failure (transport
// failures open the breaker).
func (c *storeClient) put(hash string, payload []byte) bool {
	path := pathStorePut + "?hash=" + url.QueryEscape(hash)
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	c.sign(req, path, payload)
	resp, err := c.putc.Do(req)
	if err != nil {
		c.markDown()
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode < 400
}

// flush waits until the put queue is drained (queued and in-flight both
// done) or the timeout elapses; it reports whether the queue drained.
func (c *storeClient) flush(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for c.pending.Load() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// droppedPuts reports how many background writes were shed (queue
// overflow, peer down, or write failure).
func (c *storeClient) droppedPuts() uint64 { return c.dropped.Load() }

// close stops the put worker, shedding any still-queued writes.
func (c *storeClient) close() {
	c.stopped.Do(func() { close(c.done) })
	c.wg.Wait()
}
