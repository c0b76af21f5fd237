package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program under test carries no tracing). Spans of one job
// share Trace, the job's index in its pass; Parent is the ID of the span
// that caused this one, -1 for a job's root span. Times are nanoseconds
// since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder holds spans in memory until the run ends; they are written out
// once, after measuring.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 4096)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// open starts a span and returns its ID for close.
func (r *recorder) open(trace, parent int, name string) int {
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: start})
	return id
}

// close ends span id and returns it.
func (r *recorder) close(id int) span {
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = end
	return r.spans[id]
}

// setWall sets the endpoints of span id from instants observed elsewhere
// (the grid server's lifecycle events), given as wall-clock UnixNano.
func (r *recorder) setWall(id int, startNS, endNS int64) span {
	base := r.t0.UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].Start, r.spans[id].End = startNS-base, endNS-base
	return r.spans[id]
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write dumps the spans as JSON to path.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover.
// Overlapping children (concurrent calls under one parent) count once.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	total += curB - curA
	return time.Duration(total)
}

// poolStats reduces the per-job spans of one pass run on `workers`
// workers: busy is the summed job time over wall × workers; tail is the
// time from the first worker going idle — the first completion after
// the last job was dispatched — to the last job finishing.
func poolStats(jobs []span, workers int, wall time.Duration) (busy float64, tail time.Duration) {
	if len(jobs) == 0 {
		return 0, 0
	}
	var sum time.Duration
	var lastStart, lastEnd int64
	for _, s := range jobs {
		sum += s.dur()
		lastStart = max(lastStart, s.Start)
		lastEnd = max(lastEnd, s.End)
	}
	firstIdle := lastEnd
	for _, s := range jobs {
		if s.End > lastStart && s.End < firstIdle {
			firstIdle = s.End
		}
	}
	busy = ratio(float64(sum), float64(wall)*float64(workers))
	return busy, time.Duration(lastEnd - firstIdle)
}
