package grid

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestPromMetrics pins the Prometheus text exposition and its content
// negotiation: JSON stays the default (the federation and helperd
// metrics depend on it), ?format=prom / a text/plain Accept / the
// /metrics/prom alias switch to the 0.0.4 text form with the counters
// and the lease-wait histogram.
func TestPromMetrics(t *testing.T) {
	_, ts := testGrid(t, WithLeaseTTL(5*time.Second))
	startWorker(t, ts.URL, echoExec, 2)
	c := &Client{Server: ts.URL}
	tasks := []Task{mkTask("0", "prom-a"), mkTask("1", "prom-b")}
	ch, err := c.Submit(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	collectResults(t, ch)

	get := func(path, accept string) (*http.Response, string) {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, string(raw)
	}

	// Default stays JSON.
	resp, body := get(pathMetrics, "")
	if !strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Fatalf("bare /metrics is not JSON anymore: %.80s", body)
	}
	var m Metrics
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	if m.LeaseWaits == nil || m.LeaseWaits.Count == 0 {
		t.Errorf("JSON metrics missing the lease-wait section: %.200s", body)
	}

	for _, req := range []struct{ path, accept string }{
		{pathMetrics + "?format=prom", ""},
		{pathMetrics, "text/plain"},
		{pathMetricsProm, ""},
	} {
		resp, body = get(req.path, req.accept)
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain; version=0.0.4") {
			t.Errorf("%s (Accept %q): Content-Type %q", req.path, req.accept, ct)
		}
		for _, want := range []string{
			"# TYPE grid_submitted_total counter",
			"grid_submitted_total 2",
			"grid_completed_total 2",
			`grid_lease_wait_ms_bucket{le="+Inf"} 2`,
			"grid_lease_wait_ms_count 2",
			"# TYPE grid_queue_depth gauge",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("%s (Accept %q): missing %q\n%s", req.path, req.accept, want, body)
			}
		}
	}

	// A browser-ish Accept that also takes JSON keeps JSON.
	_, body = get(pathMetrics, "text/plain, application/json")
	if !strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Errorf("json-accepting client got the text form: %.80s", body)
	}
}
