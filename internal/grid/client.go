package grid

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"sort"
	"strconv"
	"time"
)

// Client submits task batches to a grid server and decodes the NDJSON
// result stream.
type Client struct {
	// Server is the job server address (BaseURL rules apply).
	Server string
	// HTTP overrides the transport (default http.DefaultClient).
	HTTP *http.Client
	// Trace annotates every batch this client submits with trace context
	// (the X-Grid-Trace header). The federation sets a steal origin here
	// when re-submitting stolen work, so the hop is recorded in the
	// thief's trace ring; ordinary clients leave it empty.
	Trace string
	// PeerSecret signs requests to the authenticated peer seam (today
	// only PeerStatus needs it) with the federation's shared secret; on
	// a server without WithPeerSecret it is simply ignored. The client
	// and worker endpoints never require it.
	PeerSecret string
}

func (c *Client) client() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Submit posts a batch and returns a channel of its results in
// completion order (cache hits first, since the server answers them
// before any simulation runs). Unless ctx is cancelled, every submitted
// task ID receives exactly one TaskResult — a result stream that dies
// early (server crash, connection cut) yields synthetic error results
// for the tasks still outstanding — and then the channel closes.
// Cancelling ctx tears the connection down, which is how batch
// cancellation propagates to the server; the channel still closes
// promptly, so ranging until close never leaks.
func (c *Client) Submit(ctx context.Context, tasks []Task) (<-chan TaskResult, error) {
	ch, _, err := c.SubmitStream(ctx, tasks, nil)
	return ch, err
}

// BatchHandle addresses a live submitted batch on its server, for
// stopping individual jobs early.
type BatchHandle struct {
	c  *Client
	id string
}

// Stop ends the named jobs (the batch's own task IDs) early: each gets
// a final TaskResult with Err = TaskStoppedError on the stream, and jobs
// no other batch is waiting on are cancelled at their worker — the
// existing per-task cancellation path, so an early stop frees the
// worker slot instead of letting the simulation run to waste. Stopping
// an unknown or already-finished ID is a no-op. Safe for concurrent use.
func (h *BatchHandle) Stop(ctx context.Context, ids ...string) error {
	if h == nil || len(ids) == 0 {
		return nil
	}
	body, err := json.Marshal(cancelRequest{Batch: h.id, IDs: ids})
	if err != nil {
		return fmt.Errorf("grid: encoding cancel: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, BaseURL(h.c.Server)+pathCancel, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.c.client().Do(req)
	if err != nil {
		return fmt.Errorf("grid: stopping jobs: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("grid: stopping jobs: %s", resp.Status)
	}
	return nil
}

// SubmitStream is Submit plus the observability leg: when onProgress is
// non-nil the batch subscribes to interval progress, and every progress
// event is delivered to onProgress — serially, from the stream-reading
// goroutine, so it must return quickly — while final results flow on the
// returned channel as usual. Progress and results interleave on one
// stream read by one goroutine, so a caller must keep draining the
// result channel while waiting for progress: blocking results delivery
// also blocks every later progress event. The BatchHandle stops
// individual jobs early; it is valid as soon as SubmitStream returns
// (progress events can fire before then — a Stop from inside onProgress
// must wait for the handle, see WithGridProgress for the packaged
// pattern).
func (c *Client) SubmitStream(ctx context.Context, tasks []Task, onProgress func(TaskProgress)) (<-chan TaskResult, *BatchHandle, error) {
	body, err := json.Marshal(batchRequest{Jobs: tasks, Progress: onProgress != nil})
	if err != nil {
		return nil, nil, fmt.Errorf("grid: encoding batch: %w", err)
	}
	resp, err := c.postBatch(ctx, body)
	if err != nil {
		return nil, nil, err
	}
	handle := &BatchHandle{c: c, id: resp.Header.Get(batchHeader)}

	out := make(chan TaskResult)
	go func() {
		defer close(out)
		defer resp.Body.Close()
		outstanding := make(map[string]bool, len(tasks))
		for _, t := range tasks {
			outstanding[t.ID] = true
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var tr TaskResult
			if err := json.Unmarshal(line, &tr); err != nil {
				continue // tolerate a torn trailing line; the tail check below reports it
			}
			if tr.Progress != nil {
				// An interim event: the task still owes its final result.
				if onProgress != nil {
					onProgress(*tr.Progress)
				}
				continue
			}
			delete(outstanding, tr.ID)
			select {
			case out <- tr:
			case <-ctx.Done():
				return
			}
		}
		if ctx.Err() != nil || len(outstanding) == 0 {
			return
		}
		// The stream ended before every task reported: synthesize failures
		// so callers still see one result per task.
		msg := "grid: result stream ended early"
		if err := sc.Err(); err != nil {
			msg = fmt.Sprintf("%s: %v", msg, err)
		}
		ids := make([]string, 0, len(outstanding))
		for id := range outstanding {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			select {
			case out <- TaskResult{ID: id, Err: msg}:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out, handle, nil
}

// postBatch posts one batch body and returns the open result stream.
// Nothing is retried here: a transport error is the repro dispatcher's
// failover trigger, and any non-200 answer is an error carrying the
// server's message.
func (c *Client) postBatch(ctx context.Context, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, BaseURL(c.Server)+pathBatch, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.Trace != "" {
		req.Header.Set(TraceHeader, c.Trace)
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return nil, fmt.Errorf("grid: submitting batch: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, fmt.Errorf("grid: submitting batch: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	return resp, nil
}

// PeerStatus fetches a federation member's load snapshot (identity,
// known peers, queue depth, stealable tasks, free capacity). Against a
// bare unfederated Server the endpoint still answers, with Self and
// Peers empty.
func (c *Client) PeerStatus(ctx context.Context) (PeerStatus, error) {
	var st PeerStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, BaseURL(c.Server)+pathPeerStatus, nil)
	if err != nil {
		return st, err
	}
	if c.PeerSecret != "" {
		req.Header.Set(PeerAuthHeader,
			signPeerAuth(c.PeerSecret, http.MethodGet, pathPeerStatus, nil, time.Now()))
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return st, fmt.Errorf("grid: fetching peer status: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("grid: fetching peer status: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("grid: decoding peer status: %w", err)
	}
	return st, nil
}

// TraceEvents fetches one trace's span events from the server's ring —
// id may be a trace ID (content hash), a server task ID, or a batch ID.
// An empty slice means the ring holds nothing for the ID (evicted or
// never seen); an error includes the tracing-disabled 404.
func (c *Client) TraceEvents(ctx context.Context, id string) ([]TraceEvent, error) {
	var resp traceResponse
	if err := c.getJSON(ctx, pathTrace+"?id="+neturl.QueryEscape(id), &resp); err != nil {
		return nil, err
	}
	return resp.Events, nil
}

// TraceList fetches the server's most recently touched trace summaries
// (limit <= 0 uses the server default).
func (c *Client) TraceList(ctx context.Context, limit int) ([]TraceSummary, error) {
	path := pathTrace
	if limit > 0 {
		path += "?limit=" + strconv.Itoa(limit)
	}
	var resp traceResponse
	if err := c.getJSON(ctx, path, &resp); err != nil {
		return nil, err
	}
	return resp.Traces, nil
}

// getJSON GETs one endpoint and decodes the JSON answer.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, BaseURL(c.Server)+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return fmt.Errorf("grid: fetching %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("grid: fetching %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("grid: decoding %s: %w", path, err)
	}
	return nil
}

// Metrics fetches the server's counter snapshot.
func (c *Client) Metrics(ctx context.Context) (Metrics, error) {
	var m Metrics
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, BaseURL(c.Server)+pathMetrics, nil)
	if err != nil {
		return m, err
	}
	resp, err := c.client().Do(req)
	if err != nil {
		return m, fmt.Errorf("grid: fetching metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("grid: fetching metrics: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("grid: decoding metrics: %w", err)
	}
	return m, nil
}
