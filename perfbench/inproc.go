package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/parallel"
)

// The in-process workloads (ladder, dynamic) run their job set through
// Runner.RunAll, the path `sweep -study ladder` takes.

const setupReps = 25

// inprocSetup is everything a study pays before its first simulated
// cycle: building the job set from the seed, the Runner, the canonical
// hashes RunAll dedupes by, and the first job's stream and (cold) Sim.
// The Sim is dropped, not released, so every repetition pays the cold
// construction a fresh process pays.
func inprocSetup(workload string, seed int64, workers int) (time.Duration, []repro.Job, *repro.Runner, error) {
	t := time.Now()
	jobs, err := jobsFor(workload, seed, 0)
	if err != nil {
		return 0, nil, nil, err
	}
	runner := repro.NewRunner(repro.WithWorkers(workers))
	for _, j := range jobs {
		if _, err := j.Hash(); err != nil {
			return 0, nil, nil, err
		}
	}
	src, err := jobs[0].Workload.Stream()
	if err != nil {
		return 0, nil, nil, err
	}
	if _, err := core.Acquire(jobs[0].EffectiveConfig(), jobs[0].EffectivePolicy(), src); err != nil {
		return 0, nil, nil, err
	}
	return time.Since(t), jobs, runner, nil
}

// pass is one timed RunAll over a job set.
type pass struct {
	results []repro.Result
	wall    time.Duration
	alloc   uint64 // TotalAlloc delta, bytes
	err     error
}

func runPass(ctx context.Context, runner *repro.Runner, jobs []repro.Job) pass {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t := time.Now()
	res, err := runner.RunAll(ctx, jobs)
	wall := time.Since(t)
	runtime.ReadMemStats(&m1)
	return pass{results: res, wall: wall, alloc: m1.TotalAlloc - m0.TotalAlloc, err: err}
}

// fidelity runs, in-process and untimed, the ladder jobs paper_gap_pp
// needs. The paper is compared with the committed, calibrated profiles
// whatever the workload seed: re-seeded programs are not calibrated to
// SPEC, and their seed-to-seed scatter is not a fidelity change.
func fidelity(ctx context.Context, t *tally, workers int) (paperGap, error) {
	refs, err := loadPaperRefs()
	if err != nil {
		return paperGap{}, err
	}
	// Only the baseline and the rungs the references name.
	want := map[string]bool{"baseline": true}
	for _, r := range refs {
		want[r.Policy] = true
	}
	var jobs []repro.Job
	for _, j := range ladderJobs(profiles(0, 0), studyN, studyWarmup) {
		if want[j.EffectivePolicy().Name()] {
			jobs = append(jobs, j)
		}
	}
	p := runPass(ctx, repro.NewRunner(repro.WithWorkers(workers)), jobs)
	if t.checkPass("fidelity ladder", jobs, p.results, p.err) == "" {
		return paperGap{}, fmt.Errorf("fidelity ladder pass failed")
	}
	return computePaperGap(refs, jobs, p.results)
}

// measureInproc is the untraced run of ladder or dynamic.
func measureInproc(ctx context.Context, o opts, t *tally, out *output) error {
	var setups []float64
	var jobs []repro.Job
	var runner *repro.Runner
	for i := 0; i < setupReps; i++ {
		d, js, r, err := inprocSetup(o.workload, o.seed, o.workers)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		if i == 0 {
			jobs, runner = js, r
		}
		runtime.GC() // drop the repetition's Sim before the next one
	}

	// Pass i runs replica i mod studyReplicas. A run makes at least two
	// whole cycles and stops only between cycles, so every replica weighs
	// the same in the medians. The Runner keeps nothing between batches,
	// so every batch after its first is a rerun: it re-simulates in full.
	sets := [][]repro.Job{jobs}
	for r := 1; r < studyReplicas; r++ {
		js, err := jobsFor(o.workload, o.seed, r)
		if err != nil {
			return err
		}
		sets = append(sets, js)
	}
	uops := uopsOf(jobs)
	var walls, reruns, allocs []float64
	shas := make([]string, studyReplicas)
	deadline := time.Now().Add(o.seconds)
	for i := 0; i < 2*studyReplicas || i%studyReplicas != 0 || time.Now().Before(deadline); i++ {
		r := i % studyReplicas
		p := runPass(ctx, runner, sets[r])
		label := fmt.Sprintf("pass %d (replica %d)", i+1, r)
		t.sameSHA(label, &shas[r], t.checkPass(label, sets[r], p.results, p.err), len(jobs))
		if p.err != nil {
			return fmt.Errorf("%s: %w", label, p.err)
		}
		if i > 0 {
			reruns = append(reruns, p.wall.Seconds())
		}
		walls = append(walls, p.wall.Seconds())
		allocs = append(allocs, float64(p.alloc)/(1<<20))
	}
	gap, err := fidelity(ctx, t, o.workers)
	if err != nil {
		return err
	}
	out.sha = combineSHA(shas)
	out.gap = gap
	out.samples = map[string][]float64{"wall_s": walls, "rerun_s": reruns, "setup_s": setups, "alloc_mb": allocs}
	out.e2e = map[string]float64{
		"wall_s":       median(walls),
		"muops_per_s":  uops / median(walls) / 1e6,
		"setup_s":      median(setups),
		"rerun_s":      median(reruns),
		"alloc_mb":     median(allocs),
		"paper_gap_pp": gap.MeanPP,
	}
	return nil
}

// jobTiming holds the spans of one traced job execution that the
// per-layer metrics read.
type jobTiming struct {
	job, acquire, run span
}

// execTraced runs one job the way Runner.Run does locally — stream,
// pooled Sim, warm run — with a span around each layer call.
func execTraced(ctx context.Context, rec *recorder, trace int, j repro.Job) (repro.Result, jobTiming, error) {
	root := rec.open(trace, -1, "job")
	var tm jobTiming
	id := rec.open(trace, root, "synth.build")
	src, err := j.Workload.Stream()
	rec.close(id)
	if err != nil {
		return repro.Result{}, tm, err
	}
	id = rec.open(trace, root, "core.acquire")
	sim, err := core.Acquire(j.EffectiveConfig(), j.EffectivePolicy(), src)
	tm.acquire = rec.close(id)
	if err != nil {
		return repro.Result{}, tm, err
	}
	id = rec.open(trace, root, "core.run")
	res, err := sim.RunWarmCtx(ctx, j.N, j.Warmup)
	tm.run = rec.close(id)
	core.Release(sim)
	tm.job = rec.close(root)
	if err != nil {
		return res, tm, fmt.Errorf("job %s: %w", j.Label(), err)
	}
	return res, tm, nil
}

// tracedPass runs jobs over the internal/parallel pool the Runner uses,
// one traced execution per job. Trace IDs start at base.
func tracedPass(ctx context.Context, rec *recorder, jobs []repro.Job, workers, base int) ([]repro.Result, []jobTiming, error) {
	timings := make([]jobTiming, len(jobs))
	results, err := parallel.Map(ctx, len(jobs), workers, func(ctx context.Context, i int) (repro.Result, error) {
		res, tm, err := execTraced(ctx, rec, base+i, jobs[i])
		timings[i] = tm
		return res, err
	})
	return results, timings, err
}

// coreLayer reduces traced executions to the core and synth per-layer
// metrics; synthNS is the measured per-uop stream cost.
func coreLayer(m map[string]float64, jobs []repro.Job, results []repro.Result, tm []jobTiming, synthNS float64) {
	var runNS, uops, cycles float64
	var acq []float64
	for i, j := range jobs {
		runNS += float64(tm[i].run.dur())
		total := float64(j.N + j.Warmup)
		uops += total
		// Result counters cover the measured phase only; scale its cycles
		// to the whole run the span timed.
		cycles += float64(results[i].Metrics.WideCycles) * total / float64(j.N)
		acq = append(acq, us(tm[i].acquire.dur()))
	}
	m["core.acquire_us_p50"] = median(acq)
	m["core.run_ns_per_uop"] = ratio(runNS, uops)
	m["core.self_ns_per_uop"] = m["core.run_ns_per_uop"] - synthNS
	m["core.ns_per_cycle"] = ratio(runNS, cycles)
}

// simCounts reduces the simulated statistics of a result set; a pure
// speed change leaves every one of them identical.
func simCounts(m map[string]float64, results []repro.Result) {
	var c repro.Metrics
	var intervals uint64
	for _, r := range results {
		x := r.Metrics
		c.Committed += x.Committed
		c.WideCycles += x.WideCycles
		c.SteeredHelper += x.SteeredHelper
		c.CopiesCreated += x.CopiesCreated
		c.FatalFlushes += x.FatalFlushes
		c.StallROB += x.StallROB
		c.StallIQ += x.StallIQ
		c.StallPhys += x.StallPhys
		c.StallMOB += x.StallMOB
		c.WidthCorrect += x.WidthCorrect
		c.WidthNonFatal += x.WidthNonFatal
		c.WidthFatal += x.WidthFatal
		c.Branches += x.Branches
		c.BranchMispredicts += x.BranchMispredicts
		for _, u := range r.Rungs {
			intervals += u.Intervals
		}
	}
	kuop := float64(c.Committed) / 1000
	_, _, fatal := c.WidthAccuracy()
	m["core.ipc"] = c.IPC()
	m["core.helper_frac"] = c.HelperFrac()
	m["core.copy_frac"] = c.CopyFrac()
	m["core.fatal_flushes_per_kuop"] = ratio(float64(c.FatalFlushes), kuop)
	m["core.stall_rob_per_kuop"] = ratio(float64(c.StallROB), kuop)
	m["core.stall_iq_per_kuop"] = ratio(float64(c.StallIQ), kuop)
	m["core.stall_phys_per_kuop"] = ratio(float64(c.StallPhys), kuop)
	m["core.stall_mob_per_kuop"] = ratio(float64(c.StallMOB), kuop)
	m["predict.width_fatal_frac"] = fatal
	m["predict.branch_mispredict_frac"] = c.BranchMispredictRate()
	m["steer.intervals_per_kuop"] = ratio(float64(intervals), kuop)
}

// synthLayer times Profile.Stream() over the job set's distinct
// profiles (at least 110 builds, so p90 keeps ten samples beyond it),
// counts its allocations, and drains one stream per profile for the
// jobs' full budget to time Stream.Next. It returns synth.ns_per_uop.
func synthLayer(m map[string]float64, jobs []repro.Job) (float64, error) {
	var uniq []repro.Workload
	seen := map[repro.WorkloadParams]bool{}
	var budget uint64
	for _, j := range jobs {
		if !seen[j.Workload.Params] {
			seen[j.Workload.Params] = true
			uniq = append(uniq, j.Workload)
		}
		budget = max(budget, j.N+j.Warmup)
	}
	reps := (110 + len(uniq) - 1) / len(uniq)
	var builds []float64
	var mallocs uint64
	var m0, m1 runtime.MemStats
	for r := 0; r < reps; r++ {
		for _, w := range uniq {
			runtime.ReadMemStats(&m0)
			t := time.Now()
			_, err := w.Stream()
			d := time.Since(t)
			runtime.ReadMemStats(&m1)
			if err != nil {
				return 0, err
			}
			builds = append(builds, ms(d))
			mallocs += m1.Mallocs - m0.Mallocs
		}
	}
	var drain time.Duration
	var u isa.Uop
	for _, w := range uniq {
		st, err := w.Stream()
		if err != nil {
			return 0, err
		}
		t := time.Now()
		for k := uint64(0); k < budget; k++ {
			st.Next(&u)
		}
		drain += time.Since(t)
	}
	m["synth.build_ms_p50"] = median(builds)
	m["synth.build_ms_p90"] = pctl(builds, 900)
	m["synth.allocs_per_build"] = float64(mallocs) / float64(len(builds))
	ns := float64(drain) / float64(budget*uint64(len(uniq)))
	m["synth.ns_per_uop"] = ns
	return ns, nil
}

// coreAllocs counts heap allocations of Acquire + RunWarmCtx + Release
// for the first few jobs, run one at a time on a warm pool.
func coreAllocs(ctx context.Context, m map[string]float64, jobs []repro.Job) error {
	n := min(4, len(jobs))
	var total uint64
	var m0, m1 runtime.MemStats
	for _, j := range jobs[:n] {
		src, err := j.Workload.Stream()
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m0)
		sim, err := core.Acquire(j.EffectiveConfig(), j.EffectivePolicy(), src)
		if err != nil {
			return err
		}
		_, err = sim.RunWarmCtx(ctx, j.N, j.Warmup)
		core.Release(sim)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		total += m1.Mallocs - m0.Mallocs
	}
	m["core.allocs_per_job"] = float64(total) / float64(n)
	return nil
}

// wireLayer times one grid hop's encoding per job — Job.MarshalJSON plus
// the Result's JSON — and the matching decode, and checks that every
// Result survives the round trip byte for byte.
func wireLayer(m map[string]float64, t *tally, jobs []repro.Job, results []repro.Result) {
	var enc, dec time.Duration
	var bytes int
	for i, j := range jobs {
		t0 := time.Now()
		jb, err1 := json.Marshal(j)
		rb, err2 := json.Marshal(results[i])
		t1 := time.Now()
		var jj repro.Job
		var rr repro.Result
		err3 := json.Unmarshal(jb, &jj)
		err4 := json.Unmarshal(rb, &rr)
		t2 := time.Now()
		enc += t1.Sub(t0)
		dec += t2.Sub(t1)
		bytes += len(rb)
		again, err5 := json.Marshal(rr)
		if err := firstErr(err1, err2, err3, err4, err5); err != nil {
			t.fail(1, "wire round trip of %s: %v", j.Label(), err)
		} else if string(again) != string(rb) {
			t.fail(1, "wire round trip of %s changed the result", j.Label())
		}
	}
	n := float64(len(jobs))
	m["wire.encode_us"] = us(enc) / n
	m["wire.decode_us"] = us(dec) / n
	m["wire.result_bytes"] = float64(bytes) / n
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// traceInproc is the traced run of ladder or dynamic: one untraced pass
// as the overhead reference, one traced pass over the same pool size,
// then the calibrations behind the per-layer metrics.
func traceInproc(ctx context.Context, o opts, t *tally, out *output) error {
	_, jobs, runner, err := inprocSetup(o.workload, o.seed, o.workers)
	if err != nil {
		return err
	}
	// Untraced and traced passes alternate until the run's time is up;
	// the overhead compares their medians, and the per-layer figures
	// come from the first traced pass.
	var sha string
	var plain, traced []float64
	var rec *recorder
	var results []repro.Result
	var tm []jobTiming
	var wall time.Duration
	deadline := time.Now().Add(o.seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		ref := runPass(ctx, runner, jobs)
		t.sameSHA("untraced pass", &sha, t.checkPass("untraced pass", jobs, ref.results, ref.err), len(jobs))
		r := newRecorder()
		runtime.GC()
		start := time.Now()
		res, timings, err := tracedPass(ctx, r, jobs, o.workers, 0)
		d := time.Since(start)
		t.sameSHA("traced pass", &sha, t.checkPass("traced pass", jobs, res, err), len(jobs))
		if ref.err != nil || err != nil {
			return firstErr(ref.err, err)
		}
		plain = append(plain, ref.wall.Seconds())
		traced = append(traced, d.Seconds())
		if i == 0 {
			rec, results, tm, wall = r, res, timings, d
		}
	}

	m := map[string]float64{}
	synthNS, err := synthLayer(m, jobs)
	if err != nil {
		return err
	}
	coreLayer(m, jobs, results, tm, synthNS)
	if err := coreAllocs(ctx, m, jobs); err != nil {
		return err
	}
	simCounts(m, results)
	wireLayer(m, t, jobs, results)

	roots := make([]span, len(tm))
	for i := range tm {
		roots[i] = tm[i].job
	}
	busy, tail := poolStats(roots, o.workers, wall)
	m["runner.busy_frac"] = busy
	m["runner.tail_s"] = tail.Seconds()
	m["trace_overhead_pct"] = 100 * (median(traced)/median(plain) - 1)

	if o.workload == "dynamic" {
		d, err := dispatchCost(ctx, rec, t, o.workers, jobs, results)
		if err != nil {
			return err
		}
		m["steer.dispatch_ns_per_uop"] = d
	}
	out.layer = m
	out.sha = sha
	out.rec = rec
	return nil
}

// dispatchCost estimates what run-time policy selection costs per uop:
// each dynamic job's core.run ns/uop minus what the static rungs it ran
// cost per uop, weighted by the uops each governed (Result.Rungs). A
// dynamic job that ran one rung throughout is compared with exactly that
// rung. The dynamic jobs and a static reference job per app and rung run
// interleaved in one traced pass, so both see the same host; the
// references run in the traced run only.
func dispatchCost(ctx context.Context, rec *recorder, t *tally, workers int, jobs []repro.Job, results []repro.Result) (float64, error) {
	type key struct{ app, rung string }
	var mixed []repro.Job
	static := map[key]int{} // reference → index in mixed
	dyn := make([]int, len(jobs))
	for i, j := range jobs {
		dyn[i] = len(mixed)
		mixed = append(mixed, j)
		for _, u := range results[i].Rungs {
			k := key{j.Workload.Name, u.Rung}
			if _, ok := static[k]; ok || u.Committed == 0 {
				continue
			}
			pol, err := repro.PolicyByName(u.Rung)
			if err != nil {
				return 0, fmt.Errorf("static reference for rung %q: %w", u.Rung, err)
			}
			static[k] = len(mixed)
			mixed = append(mixed, repro.Job{Policy: pol, Workload: j.Workload, N: j.N, Warmup: j.Warmup})
		}
	}
	mres, tm, err := tracedPass(ctx, rec, mixed, workers, len(jobs))
	t.checkPass("dispatch reference pass", mixed, mres, err)
	if err != nil {
		return 0, err
	}
	nsPerUop := func(i int) float64 { return float64(tm[i].run.dur()) / float64(mixed[i].N+mixed[i].Warmup) }
	var sum float64
	for i, j := range jobs {
		var ref, uops float64
		for _, u := range mres[dyn[i]].Rungs {
			if u.Committed > 0 {
				ref += float64(u.Committed) * nsPerUop(static[key{j.Workload.Name, u.Rung}])
				uops += float64(u.Committed)
			}
		}
		sum += nsPerUop(dyn[i]) - ratio(ref, uops)
	}
	return sum / float64(len(jobs)), nil
}
