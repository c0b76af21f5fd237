// Command benchjson turns `go test -bench` output into a machine-readable
// JSON summary, seeding the repository's performance trajectory
// (BENCH_core.json via `make bench-json`). It reads the benchmark text
// from stdin, aggregates repeated -count runs per benchmark (min / mean /
// max ns/op, allocations), and — when BenchmarkPolicyOverhead is present
// — lifts its overhead-pct metric (the Policy-interface dispatch cost,
// measured over drift-cancelling interleaved slices) as the minimum over
// the repeated runs: scheduler interference only ever inflates an
// overhead ratio, so the smallest observation is the sharpest estimate
// of the intrinsic cost (the same reason ns_per_op_min is the value
// `benchcheck` compares).
//
// The input may concatenate SEVERAL `go test` invocations (each starts
// with a "goos:" header). Besides the global aggregates, benchjson then
// records ns_per_op_floor_worst — the slowest of the per-invocation
// minimums. On shared hardware a benchmark's floor re-rolls with each
// process launch (CPU placement, layout); a baseline built from three
// invocations captures that spread, and `benchcheck` gates fresh floors
// against it instead of against one lucky draw.
//
// The summary carries the host fingerprint of the run: the CPU model from
// `go test`'s "cpu:" header and the GOMAXPROCS its benchmark names end in
// (no suffix means 1). `benchcheck` compares absolute ns/op only between
// summaries with the same fingerprint.
//
// Usage:
//
//	go test -run '^$' -bench=. -benchmem -count=3 . | benchjson -o BENCH_core.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchLine matches one result line, e.g.
// "BenchmarkFig03Detectors-8   123456   9.87 ns/op   16 B/op   2 allocs/op",
// where -8 is the GOMAXPROCS the benchmark ran at.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([0-9.]+) ns/op(?:\s+([0-9.]+) B/op)?(?:\s+(\d+) allocs/op)?`)

// overheadMetric matches BenchmarkPolicyOverhead's custom metric: the
// dispatch-vs-static cost of the steering Policy interface, measured over
// interleaved slices of one run so machine drift cancels. The leading
// space keeps it from matching the longer phase-ucb-overhead-pct metric.
var overheadMetric = regexp.MustCompile(`([0-9.eE+-]+) overhead-pct`)

// phaseOverheadMetric matches BenchmarkPhaseUCBOverhead's metric: the
// cost of the full phase-aware dynamic plumbing (per-uop dispatch, phase
// detection, interval energy estimation, UCB arm updates) over the static
// fast path, measured with the same interleaved-slices scheme.
var phaseOverheadMetric = regexp.MustCompile(`([0-9.eE+-]+) phase-ucb-overhead-pct`)

// gridOverheadMetric matches BenchmarkGridDispatchOverhead's metric: the
// cost of dispatching one job through the distributed grid (HTTP, lease
// protocol, canonical-JSON round trip) over running it in-process,
// measured with interleaved local/grid runs at job granularity.
var gridOverheadMetric = regexp.MustCompile(`([0-9.eE+-]+) grid-dispatch-overhead-pct`)

type sample struct {
	nsPerOp     float64
	bytesPerOp  float64
	allocsPerOp uint64
	iterations  uint64
	// invocation indexes which `go test` run of a concatenated input the
	// sample came from (the "goos:" header marks each new invocation).
	// Within one invocation the -count repetitions share a machine
	// state; across invocations the state re-rolls, which is exactly the
	// noise ns_per_op_floor_worst captures.
	invocation int
}

// Summary is the JSON document written for the perf trajectory.
type Summary struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	// CPU and GOMAXPROCS fingerprint the host the benchmarks ran on.
	CPU        string  `json:"cpu,omitempty"`
	GOMAXPROCS int     `json:"gomaxprocs,omitempty"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Benchmarks []Bench `json:"benchmarks"`
	// PolicyOverheadPct is the interface-dispatch cost of the steering
	// Policy refactor in percent: the minimum of BenchmarkPolicyOverhead's
	// overhead-pct metric over the -count runs (noise only inflates the
	// ratio). Absent when that benchmark was not in the input.
	PolicyOverheadPct *float64 `json:"policy_overhead_pct,omitempty"`
	// PhaseUCBOverheadPct is the cost of the phase-aware dynamic path
	// (dispatch + phase detection + interval energy estimate + UCB arm
	// updates) over the static fast path: the minimum of
	// BenchmarkPhaseUCBOverhead's phase-ucb-overhead-pct metric. Absent
	// when that benchmark was not in the input.
	PhaseUCBOverheadPct *float64 `json:"phase_ucb_overhead_pct,omitempty"`
	// GridDispatchOverheadPct is the per-job cost of the distributed grid
	// fabric over in-process execution: the minimum of
	// BenchmarkGridDispatchOverhead's grid-dispatch-overhead-pct metric.
	// Absent when that benchmark was not in the input.
	GridDispatchOverheadPct *float64 `json:"grid_dispatch_overhead_pct,omitempty"`
}

// Bench aggregates the -count repetitions of one benchmark.
type Bench struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	NsPerOpMin  float64 `json:"ns_per_op_min"`
	NsPerOpMean float64 `json:"ns_per_op_mean"`
	NsPerOpMax  float64 `json:"ns_per_op_max"`
	// NsPerOpFloorWorst is the slowest per-invocation floor: each `go
	// test` invocation in the input yields its own min ns/op, and this
	// is the largest of those. A baseline built from several invocations
	// (make bench-json runs three) thereby records how much a
	// benchmark's floor moves with machine state — the honest reference
	// for a regression gate on shared hardware. Equals NsPerOpMin for
	// single-invocation input.
	NsPerOpFloorWorst float64 `json:"ns_per_op_floor_worst,omitempty"`
	BytesPerOp        float64 `json:"bytes_per_op"`
	AllocsPerOp       uint64  `json:"allocs_per_op"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	byName := map[string][]sample{}
	var overheads, phaseOverheads, gridOverheads []float64
	invocation := 0
	sawBench := false
	var cpu string
	gomaxprocs := 0
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "goos:") {
			// A new `go test` invocation begins (concatenated input);
			// only count it once benchmarks actually separate the headers.
			if sawBench {
				invocation++
				sawBench = false
			}
			continue
		}
		if model, ok := strings.CutPrefix(sc.Text(), "cpu: "); ok {
			cpu = strings.TrimSpace(model)
			continue
		}
		if gm := gridOverheadMetric.FindStringSubmatch(sc.Text()); gm != nil {
			if v, err := strconv.ParseFloat(gm[1], 64); err == nil {
				gridOverheads = append(gridOverheads, v)
			}
		} else if pm := phaseOverheadMetric.FindStringSubmatch(sc.Text()); pm != nil {
			if v, err := strconv.ParseFloat(pm[1], 64); err == nil {
				phaseOverheads = append(phaseOverheads, v)
			}
		} else if om := overheadMetric.FindStringSubmatch(sc.Text()); om != nil {
			if v, err := strconv.ParseFloat(om[1], 64); err == nil {
				overheads = append(overheads, v)
			}
		}
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		gomaxprocs = 1
		if m[2] != "" {
			gomaxprocs, _ = strconv.Atoi(m[2])
		}
		var s sample
		s.iterations, _ = strconv.ParseUint(m[3], 10, 64)
		s.nsPerOp, _ = strconv.ParseFloat(m[4], 64)
		if m[5] != "" {
			s.bytesPerOp, _ = strconv.ParseFloat(m[5], 64)
		}
		if m[6] != "" {
			s.allocsPerOp, _ = strconv.ParseUint(m[6], 10, 64)
		}
		s.invocation = invocation
		sawBench = true
		byName[m[1]] = append(byName[m[1]], s)
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(byName) == 0 {
		fatal(fmt.Errorf("benchjson: no benchmark lines on stdin (pipe `go test -bench` output in)"))
	}

	sum := Summary{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		CPU:         cpu,
		GOMAXPROCS:  gomaxprocs,
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		runs := byName[n]
		b := Bench{Name: n, Runs: len(runs), NsPerOpMin: runs[0].nsPerOp, NsPerOpMax: runs[0].nsPerOp}
		var total, totalBytes float64
		var totalAllocs uint64
		for _, s := range runs {
			total += s.nsPerOp
			totalBytes += s.bytesPerOp
			totalAllocs += s.allocsPerOp
			if s.nsPerOp < b.NsPerOpMin {
				b.NsPerOpMin = s.nsPerOp
			}
			if s.nsPerOp > b.NsPerOpMax {
				b.NsPerOpMax = s.nsPerOp
			}
		}
		b.NsPerOpMean = total / float64(len(runs))
		b.BytesPerOp = totalBytes / float64(len(runs))
		b.AllocsPerOp = totalAllocs / uint64(len(runs))
		floors := map[int]float64{}
		for _, s := range runs {
			if f, ok := floors[s.invocation]; !ok || s.nsPerOp < f {
				floors[s.invocation] = s.nsPerOp
			}
		}
		for _, f := range floors {
			if f > b.NsPerOpFloorWorst {
				b.NsPerOpFloorWorst = f
			}
		}
		sum.Benchmarks = append(sum.Benchmarks, b)
	}

	if pct, ok := min(overheads); ok {
		sum.PolicyOverheadPct = &pct
	}
	if pct, ok := min(phaseOverheads); ok {
		sum.PhaseUCBOverheadPct = &pct
	}
	if pct, ok := min(gridOverheads); ok {
		sum.GridDispatchOverheadPct = &pct
	}

	data, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s", len(sum.Benchmarks), *out)
	if sum.PolicyOverheadPct != nil {
		fmt.Fprintf(os.Stderr, " (policy dispatch overhead %+.2f%%)", *sum.PolicyOverheadPct)
	}
	if sum.PhaseUCBOverheadPct != nil {
		fmt.Fprintf(os.Stderr, " (phase+ucb overhead %+.2f%%)", *sum.PhaseUCBOverheadPct)
	}
	if sum.GridDispatchOverheadPct != nil {
		fmt.Fprintf(os.Stderr, " (grid dispatch overhead %+.2f%%)", *sum.GridDispatchOverheadPct)
	}
	fmt.Fprintln(os.Stderr)
}

// min picks the smallest sample; ok is false when the list is empty.
// For overhead ratios the minimum is the noise-robust aggregate: timer
// jitter and scheduler interference only push the ratio up, never down.
func min(vs []float64) (float64, bool) {
	if len(vs) == 0 {
		return 0, false
	}
	m := vs[0]
	for _, v := range vs[1:] {
		if v < m {
			m = v
		}
	}
	return m, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
