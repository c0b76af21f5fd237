package repro

// One benchmark per paper table and figure: each regenerates the
// corresponding measurement at a reduced-but-meaningful scale, so
// `go test -bench=. -benchmem` sweeps the entire evaluation. Shapes (who
// wins, by what factor) are the reproduction target; see EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/bitwidth"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/isa"
	"repro/internal/steer"
	"repro/internal/synth"
	"repro/internal/workload"
)

func benchOptions() experiments.Options {
	return experiments.Options{SpecUops: 20_000, SuiteUops: 4_000, Warmup: 4_000, Workers: 0}
}

// BenchmarkFig01NarrowDependency regenerates Figure 1 (narrow data-width
// dependent register operands + the §1 ALU operand mix).
func BenchmarkFig01NarrowDependency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Fig1(benchOptions())
		if t.Rows() == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig03Detectors exercises the Figure 3 leading zero/one detector
// circuits against the fast datapath check.
func BenchmarkFig03Detectors(b *testing.B) {
	det := bitwidth.NewNarrowDetector()
	ok := true
	for i := 0; i < b.N; i++ {
		v := uint32(i) * 0x9E3779B9
		ok = ok && (det.Narrow(v) == bitwidth.IsNarrow(v))
	}
	if !ok {
		b.Fatal("detector mismatch")
	}
}

// benchSweep shares one SPEC ladder sweep across the figure benchmarks
// that read from it (building it per-iteration would benchmark the sweep,
// not the figure extraction — the sweep itself is BenchmarkPolicyLadder).
var benchSweepCache *experiments.SpecSweep

func benchSweep(b *testing.B) *experiments.SpecSweep {
	b.Helper()
	if benchSweepCache == nil {
		benchSweepCache = experiments.RunSpecSweep(benchOptions())
	}
	return benchSweepCache
}

// BenchmarkPolicyLadder runs the full §3 policy ladder over SPEC Int — the
// workhorse behind Figures 5-9 and 12.
func BenchmarkPolicyLadder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.RunSpecSweep(benchOptions())
		if len(s.Apps) != 12 {
			b.Fatal("incomplete sweep")
		}
	}
}

// BenchmarkFig05WidthAccuracy regenerates Figure 5 (correct / non-fatal /
// fatal width prediction classes, with and without confidence).
func BenchmarkFig05WidthAccuracy(b *testing.B) {
	s := benchSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if experiments.Fig5(s).Rows() != 13 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFig06Perf888 regenerates Figure 6 (8_8_8 speedups).
func BenchmarkFig06Perf888(b *testing.B) {
	s := benchSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if experiments.Fig6(s).Rows() != 13 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFig07SteeredAndCopies regenerates Figure 7.
func BenchmarkFig07SteeredAndCopies(b *testing.B) {
	s := benchSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if experiments.Fig7(s).Rows() != 13 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFig08BRCopies regenerates Figure 8 (BR's copy reduction).
func BenchmarkFig08BRCopies(b *testing.B) {
	s := benchSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if experiments.Fig8(s).Rows() != 13 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFig09LRCopies regenerates Figure 9 (LR's copy reduction).
func BenchmarkFig09LRCopies(b *testing.B) {
	s := benchSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if experiments.Fig9(s).Rows() != 13 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFig11CarryContainment regenerates Figure 11.
func BenchmarkFig11CarryContainment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Fig11(benchOptions()).Rows() != 13 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFig12CRPerf regenerates Figure 12 (CR's speedups).
func BenchmarkFig12CRPerf(b *testing.B) {
	s := benchSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if experiments.Fig12(s).Rows() != 13 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFig13Distance regenerates Figure 13.
func BenchmarkFig13Distance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Fig13(benchOptions()).Rows() != 13 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkSec36CopyPrefetch regenerates the §3.6 CP study.
func BenchmarkSec36CopyPrefetch(b *testing.B) {
	s := benchSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if experiments.CPStudy(s).Rows() != 2 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkSec37Splitting regenerates the §3.7 IR study (imbalance
// reduction and the tuned variant).
func BenchmarkSec37Splitting(b *testing.B) {
	s := benchSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if experiments.IRStudy(s).Rows() != 3 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkSec37EnergyDelay regenerates the §3.7 ED² comparison.
func BenchmarkSec37EnergyDelay(b *testing.B) {
	s := benchSweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if experiments.EnergyDelay(s).Rows() != 13 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTable1Config renders the Table 1 machine parameters.
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1().Rows() == 0 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTable2Workloads renders the Table 2 inventory (and validates
// the 412-trace suite expansion).
func BenchmarkTable2Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table2().Rows() != 8 {
			b.Fatal("bad table")
		}
		if len(workload.Suite()) != workload.SuiteSize {
			b.Fatal("bad suite")
		}
	}
}

// BenchmarkFig14Suite regenerates Figure 14 over the full 412-trace suite
// (reduced per-trace budget; the category ordering is the target).
func BenchmarkFig14Suite(b *testing.B) {
	o := benchOptions()
	o.SuiteUops = 2_000
	for i := 0; i < b.N; i++ {
		table, series := experiments.Fig14(o)
		if table.Rows() != 8 || len(series.Values) != 412 {
			b.Fatal("bad fig14")
		}
	}
}

// --- ablation benches for the design choices DESIGN.md calls out ---

// BenchmarkAblationClockRatio compares helper clock ratios 1× vs 2× (§2.2).
func BenchmarkAblationClockRatio(b *testing.B) {
	w, _ := WorkloadByName("crafty")
	for i := 0; i < b.N; i++ {
		cfg := HelperConfig()
		cfg.HelperClockRatio = 1 + i%2
		r := RunWarm(cfg, steer.FCR(), w, 15_000, 3_000)
		if r.Metrics.Committed == 0 {
			b.Fatal("no work")
		}
	}
}

// BenchmarkAblationConfidence compares 8_8_8 with and without the 2-bit
// confidence estimator (§3.2).
func BenchmarkAblationConfidence(b *testing.B) {
	w, _ := WorkloadByName("gzip")
	for i := 0; i < b.N; i++ {
		pol := steer.F888()
		if i%2 == 1 {
			pol = steer.F888NoConfidence()
		}
		r := RunWarm(HelperConfig(), pol, w, 15_000, 3_000)
		if r.Metrics.Committed == 0 {
			b.Fatal("no work")
		}
	}
}

// BenchmarkAblationHelperWidth compares 8/16/24-bit helper datapaths
// (§2.1's wider-cluster remark).
func BenchmarkAblationHelperWidth(b *testing.B) {
	w, _ := WorkloadByName("crafty")
	widths := []int{8, 16, 24}
	for i := 0; i < b.N; i++ {
		cfg := HelperConfig()
		cfg.HelperWidthBits = widths[i%len(widths)]
		r := RunWarm(cfg, steer.FCR(), w, 15_000, 3_000)
		if r.Metrics.Committed == 0 {
			b.Fatal("no work")
		}
	}
}

// BenchmarkAblationSplitMode compares per-uop, tuned and block-granularity
// splitting (§3.7 and its proposed extension).
func BenchmarkAblationSplitMode(b *testing.B) {
	w, _ := WorkloadByName("eon")
	pols := []Policy{steer.FIR(), steer.FIRTuned(), steer.FIRBlock()}
	for i := 0; i < b.N; i++ {
		r := RunWarm(HelperConfig(), pols[i%len(pols)], w, 15_000, 3_000)
		if r.Metrics.Committed == 0 {
			b.Fatal("no work")
		}
	}
}

// --- raw throughput benches ---

// BenchmarkSimulatorThroughput measures timing-simulation speed in
// uops/sec (reported as ns/uop via b.N uops).
func BenchmarkSimulatorThroughput(b *testing.B) {
	w, _ := WorkloadByName("gcc")
	sim := mustSim(HelperConfig(), steer.FCR(), w)
	b.ResetTimer()
	r := sim.Run(uint64(b.N))
	if r.Metrics.Committed < uint64(b.N) {
		b.Fatal("short run")
	}
}

// dispatchPolicy forces the same feature set through the dynamic Policy
// dispatch path: it is not a steer.Features value, so the core cannot
// take the static fast path and calls Decide per renamed uop. Decide is
// implemented directly (not via embedding) so the benchmark pays exactly
// one dynamic call per uop, like the real dynamic policies.
type dispatchPolicy struct{ steer.Features }

func (p dispatchPolicy) Decide(*isa.Uop, *steer.View) steer.Features { return p.Features }

// BenchmarkPolicyOverhead prices the Policy-interface refactor on the hot
// path: a steer.Features policy runs exactly the pre-refactor static code
// (cached feature set, no dispatch), while dispatchPolicy carries the
// identical features through a per-uop interface call — the upper bound
// on what any dynamic policy adds before its own logic. The two
// simulators advance in interleaved 50k-uop slices inside one timed run,
// so slow machine drift (other tenants, thermal) hits both sides equally
// instead of biasing whichever variant ran second. The headline number is
// the custom overhead-pct metric (dispatch vs static, must stay under 5);
// cmd/benchjson lifts it into BENCH_core.json as policy_overhead_pct.
// ns/op reports the combined cost of one uop through each simulator.
func BenchmarkPolicyOverhead(b *testing.B) {
	w, _ := WorkloadByName("gcc")
	simStatic := mustSim(HelperConfig(), steer.FCR(), w)
	simDispatch := mustSim(HelperConfig(), dispatchPolicy{steer.FCR()}, w)
	const chunk = 50_000
	var tStatic, tDispatch time.Duration
	var target uint64
	b.ResetTimer()
	for remaining := uint64(b.N); remaining > 0; {
		n := uint64(chunk)
		if n > remaining {
			n = remaining
		}
		remaining -= n
		target += n
		t0 := time.Now()
		simStatic.Run(target)
		t1 := time.Now()
		simDispatch.Run(target)
		tStatic += t1.Sub(t0)
		tDispatch += time.Since(t1)
	}
	b.StopTimer()
	if simStatic.Metrics().Committed < uint64(b.N) || simDispatch.Metrics().Committed < uint64(b.N) {
		b.Fatal("short run")
	}
	b.ReportMetric(float64(tStatic.Nanoseconds())/float64(b.N), "static-ns/uop")
	b.ReportMetric(float64(tDispatch.Nanoseconds())/float64(b.N), "dispatch-ns/uop")
	b.ReportMetric((float64(tDispatch)/float64(tStatic)-1)*100, "overhead-pct")
}

// BenchmarkDynamicTournament measures the full adaptive path: per-uop
// dispatch plus interval Observe feedback and usage accounting.
func BenchmarkDynamicTournament(b *testing.B) {
	w, _ := WorkloadByName("gcc")
	sim := mustSim(HelperConfig(), steer.DefaultTournament(), w)
	b.ResetTimer()
	if r := sim.Run(uint64(b.N)); r.Metrics.Committed < uint64(b.N) {
		b.Fatal("short run")
	}
}

// BenchmarkDynamicUCB measures the UCB bandit end to end: per-uop
// dispatch, phase detection, interval energy estimation and arm updates.
func BenchmarkDynamicUCB(b *testing.B) {
	w, _ := WorkloadByName("gcc")
	sim := mustSim(HelperConfig(), steer.DefaultUCBED2(), w)
	b.ResetTimer()
	if r := sim.Run(uint64(b.N)); r.Metrics.Committed < uint64(b.N) {
		b.Fatal("short run")
	}
}

// phaseUCBPolicy prices the phase-aware machinery without perturbing the
// simulated work: it steers exactly like the static FCR rung, but its
// non-zero Interval switches the core onto the full adaptive path — the
// per-uop Decide dispatch (plus a real UCB arm lookup), the branch/memory
// phase-detector notes, the interval power-model estimate, and real UCB
// arm updates in Observe. Comparing it against the static FCR fast path
// isolates exactly the phase-tracking + UCB dispatch cost.
type phaseUCBPolicy struct{ ucb *steer.UCB }

func (p phaseUCBPolicy) Name() string { return "bench:phase-ucb-probe" }
func (p phaseUCBPolicy) Decide(u *isa.Uop, v *steer.View) steer.Features {
	p.ucb.Decide(u, v)
	return steer.FCR()
}
func (p phaseUCBPolicy) Observe(d Metrics, occ steer.Occupancy) { p.ucb.Observe(d, occ) }
func (p phaseUCBPolicy) Interval() uint64                       { return p.ucb.Interval() }
func (p phaseUCBPolicy) NeedsHelper() bool                      { return true }

// BenchmarkPhaseUCBOverhead prices the tentpole machinery of the
// phase-aware refactor on the hot path, BenchmarkPolicyOverhead-style:
// the static FCR rung runs the zero-dispatch fast path, while
// phaseUCBPolicy carries the identical steering decisions through the
// complete phase-aware dynamic plumbing. The two simulators advance in
// interleaved 50k-uop slices inside one timed run so machine drift hits
// both sides equally. The headline number is the phase-ucb-overhead-pct
// metric (must stay under 5); cmd/benchjson lifts it into BENCH_core.json
// as phase_ucb_overhead_pct.
func BenchmarkPhaseUCBOverhead(b *testing.B) {
	w, _ := WorkloadByName("gcc")
	simStatic := mustSim(HelperConfig(), steer.FCR(), w)
	simPhase := mustSim(HelperConfig(), phaseUCBPolicy{steer.DefaultUCB()}, w)
	const chunk = 50_000
	var tStatic, tPhase time.Duration
	var target uint64
	b.ResetTimer()
	for remaining := uint64(b.N); remaining > 0; {
		n := uint64(chunk)
		if n > remaining {
			n = remaining
		}
		remaining -= n
		target += n
		t0 := time.Now()
		simStatic.Run(target)
		t1 := time.Now()
		simPhase.Run(target)
		tStatic += t1.Sub(t0)
		tPhase += time.Since(t1)
	}
	b.StopTimer()
	if simStatic.Metrics().Committed < uint64(b.N) || simPhase.Metrics().Committed < uint64(b.N) {
		b.Fatal("short run")
	}
	b.ReportMetric(float64(tStatic.Nanoseconds())/float64(b.N), "static-ns/uop")
	b.ReportMetric(float64(tPhase.Nanoseconds())/float64(b.N), "phase-ns/uop")
	b.ReportMetric((float64(tPhase)/float64(tStatic)-1)*100, "phase-ucb-overhead-pct")
}

// BenchmarkGridDispatchOverhead prices the distributed grid fabric
// against in-process execution: each iteration runs one job locally and
// one through a live grid (HTTP server, lease protocol, canonical-JSON
// round trip, NDJSON result stream, one in-process worker), interleaved
// inside one timed run so machine drift hits both sides equally — the
// BenchmarkPolicyOverhead scheme at job granularity. The job is sized
// like a production sweep point (cmd/sweep's default 120k measured
// uops), so the ratio reflects how dispatch actually amortizes: the
// absolute cost is fixed per job (~1-2ms), and gating the ratio on a
// toy job would measure the job, not the fabric.
// Every job gets a unique Name so its content hash misses the result
// store and the full dispatch path is exercised. The headline number is
// the grid-dispatch-overhead-pct metric; cmd/benchjson lifts it into
// BENCH_core.json as grid_dispatch_overhead_pct.
// One job at a time keeps the worker's only slot free whenever a lease
// is asked for, so this benchmark cannot see how fast a busy worker
// refills a freed slot: it read -7.4% while a 20 ms poll left the batch
// path's slots idle 69% of the time. BenchmarkGridBatch covers that.
func BenchmarkGridDispatchOverhead(b *testing.B) {
	w, _ := WorkloadByName("gcc")
	srv := grid.NewServer()
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	local := NewRunner()
	worker := &grid.Worker{Server: ts.URL, Exec: local.JobExec(), Parallel: 1,
		LeaseWait: 200 * time.Millisecond, Name: "bench"}
	wctx, wcancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		worker.Run(wctx)
	}()
	defer func() {
		wcancel()
		<-workerDone
	}()
	remote := NewRunner(WithGrid(ts.URL))

	ctx := context.Background()
	job := Job{Policy: PolicyFull(), Workload: w, N: 120_000, Warmup: 4_000}
	var tLocal, tGrid time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := job
		j.Name = fmt.Sprintf("local-%d", i)
		t0 := time.Now()
		if _, err := local.Run(ctx, j); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		j.Name = fmt.Sprintf("grid-%d", i)
		if _, err := remote.Run(ctx, j); err != nil {
			b.Fatal(err)
		}
		tLocal += t1.Sub(t0)
		tGrid += time.Since(t1)
	}
	b.StopTimer()
	b.ReportMetric(float64(tLocal.Nanoseconds())/float64(b.N), "local-ns/job")
	b.ReportMetric(float64(tGrid.Nanoseconds())/float64(b.N), "grid-ns/job")
	b.ReportMetric((float64(tGrid)/float64(tLocal)-1)*100, "grid-dispatch-overhead-pct")
}

// BenchmarkGridBatch pushes a batch of short jobs through the grid: 48
// ladder jobs (6 SPEC apps x baseline + 7 rungs, 5k measured uops)
// through WithGrid to an in-process server and one two-slot worker. The
// jobs run for a few ms each, so the fabric's per-job latency — above
// all how soon a worker refills a freed slot — dominates the batch
// time. Every job is uniquely named so it misses the result store.
// ns/op is one whole batch (the figure bench-check gates); jobs/s is
// the same number as throughput.
func BenchmarkGridBatch(b *testing.B) {
	srv := grid.NewServer()
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	worker := &grid.Worker{Server: ts.URL, Exec: NewRunner().JobExec(), Parallel: 2,
		LeaseWait: 200 * time.Millisecond, Name: "bench-batch"}
	wctx, wcancel := context.WithCancel(context.Background())
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		worker.Run(wctx)
	}()
	defer func() {
		wcancel()
		<-workerDone
	}()
	remote := NewRunner(WithGrid(ts.URL))

	var jobs []Job
	for _, w := range SpecInt2000()[:6] {
		jobs = append(jobs, Job{Config: BaselineConfig(), Policy: PolicyBaseline(),
			Workload: w, N: 5_000, Warmup: 1_250})
		for _, pol := range PolicyLadder() {
			jobs = append(jobs, Job{Policy: pol, Workload: w, N: 5_000, Warmup: 1_250})
		}
	}
	if len(jobs) != 48 {
		b.Fatalf("%d batch jobs, want 48", len(jobs))
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range jobs {
			jobs[k].Name = fmt.Sprintf("batch-%d-%d", i, k)
		}
		if _, err := remote.RunAll(ctx, jobs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(jobs)*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkSynthThroughput measures trace generation speed.
func BenchmarkSynthThroughput(b *testing.B) {
	s := synth.MustNewStream(synth.DefaultParams())
	var u isa.Uop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Next(&u)
	}
	if u.Seq == 0 && b.N > 1 {
		b.Fatal("stream stalled")
	}
}
