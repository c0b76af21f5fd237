// Command perfbench is the repository benchmark: it runs one named
// workload of the helper-cluster simulator for a fixed time, checks that
// every result is correct, and prints every metric by name and unit. The
// last line of its standard output is one JSON object:
//
//	{"correct": true, "attempted": 480, "failed": 0, "metrics": {"wall_s": {"value": 5.61, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 a separate traced run reports the per-layer metrics. Run
// it through run.sh from the repository root; README.md explains the
// workloads, the metrics and which layer each metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type opts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workers  int
}

// output is what one run measured.
type output struct {
	e2e     map[string]float64
	layer   map[string]float64
	samples map[string][]float64 // per-pass samples behind e2e timings
	sha     string
	gap     paperGap
	rec     *recorder
}

type metricSpec struct{ name, unit string }

// e2eMetrics are printed by untraced runs (-trace 0).
var e2eMetrics = []metricSpec{
	{"wall_s", "s"},
	{"muops_per_s", "Muops/s"},
	{"setup_s", "s"},
	{"rerun_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"paper_gap_pp", "pp"},
}

// layerMetrics are printed by traced runs (-trace 1). A layer the
// workload bypasses reports 0.
var layerMetrics = []metricSpec{
	{"synth.build_ms_p50", "ms"},
	{"synth.build_ms_p90", "ms"},
	{"synth.allocs_per_build", "count"},
	{"synth.ns_per_uop", "ns"},
	{"core.acquire_us_p50", "us"},
	{"core.run_ns_per_uop", "ns"},
	{"core.self_ns_per_uop", "ns"},
	{"core.ns_per_cycle", "ns"},
	{"core.allocs_per_job", "count"},
	{"core.ipc", "uops/cycle"},
	{"core.helper_frac", "fraction"},
	{"core.copy_frac", "fraction"},
	{"core.fatal_flushes_per_kuop", "1/kuop"},
	{"core.stall_rob_per_kuop", "cycles/kuop"},
	{"core.stall_iq_per_kuop", "cycles/kuop"},
	{"core.stall_phys_per_kuop", "cycles/kuop"},
	{"core.stall_mob_per_kuop", "cycles/kuop"},
	{"predict.width_fatal_frac", "fraction"},
	{"predict.branch_mispredict_frac", "fraction"},
	{"steer.dispatch_ns_per_uop", "ns"},
	{"steer.intervals_per_kuop", "1/kuop"},
	{"runner.busy_frac", "fraction"},
	{"runner.tail_s", "s"},
	{"wire.encode_us", "us"},
	{"wire.decode_us", "us"},
	{"wire.result_bytes", "bytes"},
	{"grid.admission_ms_p50", "ms"},
	{"grid.admission_ms_p90", "ms"},
	{"grid.queue_ms_p50", "ms"},
	{"grid.queue_ms_p90", "ms"},
	{"grid.exec_ms_p50", "ms"},
	{"grid.exec_ms_p90", "ms"},
	{"grid.e2e_ms_p50", "ms"},
	{"grid.e2e_ms_p90", "ms"},
	{"grid.fabric_ms_p50", "ms"},
	{"grid.fabric_ms_p90", "ms"},
	{"store.get_us_p50", "us"},
	{"store.get_us_p90", "us"},
	{"store.put_us_p50", "us"},
	{"store.hit_ratio", "fraction"},
	{"grid.lease_poll_empty_per_job", "1/job"},
	{"grid.reassigned", "count"},
	{"grid.coalesced", "count"},
	{"worker.exec_ms_p50", "ms"},
	{"trace_overhead_pct", "%"},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: ladder, dynamic or grid")
	seed := fs.Int64("seed", 0, "workload seed; 0 keeps the committed profile seeds")
	seconds := fs.Int("seconds", 30, "measuring time of the run, in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := jobsFor(*workload, *seed, 0); err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: perfbench --workload ladder|dynamic|grid --seed N --seconds S --trace 0|1")
		return 2
	}
	o := opts{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, workers: min(runtime.NumCPU(), runtime.GOMAXPROCS(0)),
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	h := fingerprint()
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%d trace=%d workers=%d\n",
		o.workload, o.seed, *seconds, *trace, o.workers)
	fmt.Fprintf(stdout, "host cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s\n", h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.OS)

	t := &tally{}
	out := &output{}
	var err error
	switch {
	case o.trace && o.workload == "grid":
		err = traceGrid(ctx, o, t, out)
	case o.trace:
		err = traceInproc(ctx, o, t, out)
	case o.workload == "grid":
		err = measureGrid(ctx, o, t, out)
	default:
		err = measureInproc(ctx, o, t, out)
	}
	if err != nil {
		t.attempted = max(t.attempted, 1)
		t.fail(1, "%v", err)
	}
	if !o.trace {
		if out.e2e == nil {
			out.e2e = map[string]float64{}
		}
		rss, rerr := peakRSSMB()
		if rerr != nil {
			t.fail(1, "peak RSS: %v", rerr)
		}
		out.e2e["peak_rss_mb"] = rss
	}

	specs, values := e2eMetrics, out.e2e
	if o.trace {
		specs, values = layerMetrics, out.layer
	}
	report(stdout, t, out, specs, values)
	if err := writeArtifacts(o, h, t, out, specs, values); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing artifacts:", err)
	}

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{t.failed == 0, max(t.attempted, 1), t.failed, map[string]metric{}}
	for _, s := range specs {
		line.Metrics[s.name] = metric{values[s.name], s.unit}
	}
	b, jerr := json.Marshal(line)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if t.failed > 0 {
		return 1
	}
	return 0
}

// report prints the human-readable part of the output: the correctness
// verdict, the results digest, the paper gap's components, every metric
// with its unit, the per-pass sample summaries, and per-layer self time.
func report(w io.Writer, t *tally, out *output, specs []metricSpec, values map[string]float64) {
	for _, p := range t.problems {
		fmt.Fprintln(w, "FAIL", p)
	}
	fmt.Fprintf(w, "failed_frac %g (%d of %d jobs failed or incorrect)\n",
		ratio(float64(t.failed), float64(max(t.attempted, 1))), t.failed, t.attempted)
	fmt.Fprintf(w, "results_sha256 %s\n", out.sha)
	if len(out.gap.Gap) > 0 {
		refs, _ := loadPaperRefs()
		for _, r := range refs {
			fmt.Fprintf(w, "paper_gap %-18s measured %7.2f paper %5.1f gap %6.2f pp  [%s; %s]\n",
				r.Name, out.gap.Measured[r.Name], r.Paper, out.gap.Gap[r.Name], r.Source, r.Status)
		}
	}
	for _, s := range specs {
		fmt.Fprintf(w, "metric %-32s %14.6g %s\n", s.name, values[s.name], s.unit)
	}
	names := make([]string, 0, len(out.samples))
	for n := range out.samples {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sm := summarize(out.samples[n])
		fmt.Fprintf(w, "samples %-10s n=%d p50=%.6g p%g=%.6g\n", n, sm.N, sm.P50, float64(sm.TailPM)/10, sm.Tail)
	}
	if out.rec != nil {
		self := selfTimes(out.rec.snapshot())
		names = names[:0]
		for n := range self {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "self_time %-14s %.3f s\n", n, self[n].Seconds())
		}
	}
}

// writeArtifacts records the run — host fingerprint, metrics, samples,
// paper gap components, problems — and the traced run's spans under
// .bench_build/perfbench/results in the working directory.
func writeArtifacts(o opts, h host, t *tally, out *output, specs []metricSpec, values map[string]float64) error {
	dir := filepath.Join(".bench_build", "perfbench", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace0", o.workload, o.seed)
	if o.trace {
		base = fmt.Sprintf("%s-seed%d-trace1", o.workload, o.seed)
	}
	metrics := map[string]any{}
	for _, s := range specs {
		metrics[s.name] = map[string]any{"value": values[s.name], "unit": s.unit}
	}
	doc := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds.Seconds(), "trace": o.trace,
		"host": h, "results_sha256": out.sha, "metrics": metrics, "samples": out.samples,
		"paper_gap": out.gap, "attempted": t.attempted, "failed": t.failed, "problems": t.problems,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), data, 0o644); err != nil {
		return err
	}
	if out.rec != nil {
		return out.rec.write(filepath.Join(dir, base+"-spans.json"))
	}
	return nil
}
