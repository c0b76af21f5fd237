package repro

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// Job names one simulation: a machine configuration, a steering policy, a
// workload, and the uop budgets. The zero values of Config and Warmup are
// meaningful defaults — a zero Config picks BaselineConfig or HelperConfig
// from the policy, and a zero Warmup picks the Runner's warmup fraction —
// so a wire request can be as small as {"workload":"gcc","policy":"ir",
// "n":100000} (see UnmarshalJSON).
type Job struct {
	// Name is an optional caller label, echoed through JobResult and
	// Progress; the simulator ignores it.
	Name string `json:"name,omitempty"`
	// Config is the simulated machine. The zero value means "derive from
	// the policy": HelperConfig when the policy steers (Enable888),
	// BaselineConfig otherwise.
	Config Config `json:"config"`
	// Policy selects the steering schemes.
	Policy Policy `json:"policy"`
	// Workload is the synthetic workload profile to simulate.
	Workload Workload `json:"workload"`
	// N is the committed-uop budget of the measured phase.
	N uint64 `json:"n"`
	// Warmup is the committed-uop budget of the warmup phase (predictors
	// and caches fill, then counters reset). Zero means "use the Runner's
	// warmup fraction of N"; build the Runner with WithWarmupFrac(0) to
	// force literally no warmup.
	Warmup uint64 `json:"warmup,omitempty"`
}

// EffectivePolicy returns the policy the job will actually run: Policy
// itself, or — when Policy is nil — the baseline (no steering).
func (j Job) EffectivePolicy() Policy {
	if j.Policy == nil {
		return PolicyBaseline()
	}
	return j.Policy
}

// EffectiveConfig returns the machine the job will actually run on:
// Config itself, or — when Config is zero — the policy-derived default
// (HelperConfig when the policy steers, BaselineConfig otherwise). Use it
// wherever the resolved machine matters, e.g. to feed EstimatePower.
func (j Job) EffectiveConfig() Config {
	if j.Config != (Config{}) {
		return j.Config
	}
	if j.EffectivePolicy().NeedsHelper() {
		return HelperConfig()
	}
	return BaselineConfig()
}

// Label returns the job's display name: the explicit Name if set, else
// "workload/policy".
func (j Job) Label() string {
	if j.Name != "" {
		return j.Name
	}
	return j.Workload.Name + "/" + j.EffectivePolicy().Name()
}

// Validate reports the first structural problem with the job as the
// Runner would execute it (defaults not yet applied).
func (j Job) Validate() error {
	if j.N == 0 {
		return fmt.Errorf("repro: job %s: N must be > 0", j.Label())
	}
	if j.Workload.Name == "" && j.Workload.Params == (WorkloadParams{}) {
		return fmt.Errorf("repro: job %s: missing workload", j.Label())
	}
	if err := j.Workload.Params.Validate(); err != nil {
		return fmt.Errorf("repro: job %s: %w", j.Label(), err)
	}
	if v, ok := j.EffectivePolicy().(interface{ Validate() error }); ok {
		if err := v.Validate(); err != nil {
			return fmt.Errorf("repro: job %s: %w", j.Label(), err)
		}
	}
	if j.Config != (Config{}) {
		if err := j.Config.Validate(); err != nil {
			return fmt.Errorf("repro: job %s: %w", j.Label(), err)
		}
	}
	return nil
}

// JobResult is one streamed batch outcome. Index is the job's position in
// the slice passed to RunBatch (results arrive in completion order). Err
// is non-nil when the job failed to build, the simulation stalled, or the
// context was cancelled; on cancellation Result still holds the partial
// measurements collected in the measured phase (zero if cancellation hit
// during warmup — mirroring Runner.Run), on the other failures it is
// meaningless.
type JobResult struct {
	Index  int
	Job    Job
	Result Result
	Err    error
}

// Progress reports batch completion to the callback installed with
// WithProgress: Done of Total jobs have finished, Job being the one that
// just completed (with Err its failure, if any).
type Progress struct {
	Done  int
	Total int
	Job   Job
	Err   error
}

// JobError attributes a batch failure to the job that caused it: RunAll
// returns one wrapping the first real failure, so callers can report the
// offending job (its canonical JSON reproduces the run) instead of a
// bare message. Error and Unwrap delegate to the underlying error, which
// already carries the job label.
type JobError struct {
	// Index is the job's position in the slice the caller passed.
	Index int
	// Job is the failed job as submitted.
	Job Job
	// Err is the underlying failure.
	Err error
}

func (e *JobError) Error() string { return e.Err.Error() }

func (e *JobError) Unwrap() error { return e.Err }

// Runner executes Jobs: one at a time with Run, or fanned out over a
// bounded worker pool with RunBatch — locally by default, or dispatched
// to a grid job server when built WithGrid. A Runner is immutable after
// NewRunner and safe for concurrent use; the zero-config DefaultRunner()
// serves quick one-off runs.
type Runner struct {
	workers      int
	warmupFrac   float64
	progress     func(Progress)
	grid         string
	gridPriority int
	gridProgress func(JobProgress)
	gridSecret   string
}

// Option configures a Runner.
type Option func(*Runner)

// WithWorkers bounds RunBatch parallelism; n < 1 (the default) means
// GOMAXPROCS.
func WithWorkers(n int) Option { return func(r *Runner) { r.workers = n } }

// WithWarmupFrac sets the default warmup budget for jobs that leave
// Warmup zero, as a fraction of the job's N (clamped to [0,1]). The
// default is 0.2, the n/5 convention of the paper harness.
func WithWarmupFrac(f float64) Option {
	return func(r *Runner) {
		if !(f >= 0) { // negatives and NaN
			f = 0
		}
		if f > 1 {
			f = 1
		}
		r.warmupFrac = f
	}
}

// WithProgress installs a completion callback for RunBatch, invoked once
// per finished job, including failed and cancelled ones. Invocations are
// serialized by the batch and Done is strictly increasing across them, so
// the callback may write to a terminal without its own locking; it should
// return quickly, since it briefly holds up other finishing workers.
func WithProgress(fn func(Progress)) Option {
	return func(r *Runner) { r.progress = fn }
}

// NewRunner builds a Runner with the given options.
func NewRunner(opts ...Option) *Runner {
	r := &Runner{warmupFrac: 0.2}
	for _, o := range opts {
		o(r)
	}
	return r
}

// defaultRunner backs the package-level deprecated wrappers. Its warmup
// fraction is 0 so the wrappers' explicit warmup arguments pass through
// verbatim (including zero).
var defaultRunner = NewRunner(WithWarmupFrac(0))

// DefaultRunner returns the shared package-level Runner used by the
// deprecated free functions. It applies no default warmup: jobs run with
// exactly the Warmup they carry.
func DefaultRunner() *Runner { return defaultRunner }

// withDefaults resolves the job's zero-value conveniences against the
// runner's settings.
func (r *Runner) withDefaults(j Job) Job {
	j.Config = j.EffectiveConfig()
	j.Policy = j.EffectivePolicy()
	if j.Warmup == 0 {
		j.Warmup = uint64(r.warmupFrac * float64(j.N))
	}
	return j
}

// Run executes one job to completion or cancellation. Cancellation during
// the measured phase returns the partial measurements collected so far
// along with ctx.Err(); cancellation while still warming up returns a
// zero Result, since warmup counters are not measurements. On a grid
// Runner the job travels to the job server as a one-job batch (and may
// be answered from the content-addressed result cache).
func (r *Runner) Run(ctx context.Context, j Job) (Result, error) {
	if r.grid != "" {
		// Suppress the batch progress callback: a local Run never fires
		// it, and grid dispatch must stay behaviourally transparent.
		rr := *r
		rr.progress = nil
		for jr := range rr.runGridBatch(ctx, []Job{j}) {
			return jr.Result, jr.Err
		}
		// Channel closed without a delivery: cancelled mid-stream.
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		return Result{}, fmt.Errorf("repro: grid job %s: no result delivered", j.Label())
	}
	return r.runLocal(ctx, j)
}

// runLocal executes one job in this process — the path grid workers use
// regardless of their own Runner's dispatch mode.
func (r *Runner) runLocal(ctx context.Context, j Job) (Result, error) {
	return r.runLocalProgress(ctx, j, 0, nil)
}

// runLocalProgress is runLocal with an optional interval progress hook:
// every `every` committed uops of the measured phase, report receives a
// snapshot (uops retired, interval IPC, active rung, phase ID). every
// == 0 picks the job's natural granularity — the policy's Observe
// interval when it has one, else 1/50th of N. The hook is read-only:
// results are bit-identical with or without it.
func (r *Runner) runLocalProgress(ctx context.Context, j Job, every uint64, report func(GridTaskProgress)) (Result, error) {
	j = r.withDefaults(j)
	if err := j.Validate(); err != nil {
		return Result{}, err
	}
	src, err := j.Workload.Stream()
	if err != nil {
		return Result{}, fmt.Errorf("repro: job %s: %w", j.Label(), err)
	}
	// Acquire from the sim pool: a recycled Sim reset for this job is
	// byte-identical in behaviour to a fresh one, and reusing its storage
	// (ROB, queues, predictor tables, cache arrays) keeps batch loops and
	// grid workers out of the allocator.
	sim, err := core.Acquire(j.Config, j.Policy, src)
	if err != nil {
		return Result{}, fmt.Errorf("repro: job %s: %w", j.Label(), err)
	}
	defer core.Release(sim)
	if report != nil {
		if every == 0 {
			if every = j.Policy.Interval(); every == 0 {
				if every = j.N / 50; every == 0 {
					every = 1
				}
			}
		}
		sim.SetProgress(every, func(p core.Progress) {
			report(GridTaskProgress{
				Uops:        p.Committed,
				Total:       j.N,
				IntervalIPC: p.IntervalIPC,
				Rung:        p.Rung,
				Phase:       p.Phase,
			})
		})
	}
	res, err := sim.RunWarmCtx(ctx, j.N, j.Warmup)
	if err != nil {
		return res, fmt.Errorf("repro: job %s: %w", j.Label(), err)
	}
	return res, nil
}

// RunBatch executes the jobs on a bounded worker pool and streams each
// JobResult as it completes (completion order; use Index to reorder). The
// channel closes once every dispatched job has finished. Cancelling ctx
// stops in-flight simulations mid-run and queued jobs are never
// dispatched; the channel closes promptly either way, so ranging until
// close never leaks. After cancellation delivery is best-effort — some
// results (even just-completed successes) may be dropped rather than
// block on a departed receiver — so a caller that needs to know which
// jobs finished should count received Indexes against len(jobs). The
// caller MUST either drain the channel or cancel ctx: abandoning the
// channel under a live context blocks the pool forever and keeps the
// remaining simulations running (to stop at the first failure, cancel
// ctx before breaking out — or just use RunAll, which handles all of
// this). Per-job failures arrive as JobResult.Err — the batch keeps
// going.
func (r *Runner) RunBatch(ctx context.Context, jobs []Job) <-chan JobResult {
	if r.grid != "" {
		return r.runGridBatch(ctx, jobs)
	}
	batch := make([]Job, len(jobs))
	copy(batch, jobs)
	total := len(batch)
	// The counter increments under the same mutex that serializes the
	// callback, so observers see Done strictly increasing.
	var progressMu sync.Mutex
	done := 0
	return parallel.Stream(ctx, total, r.workers, func(ctx context.Context, i int) JobResult {
		res, err := r.Run(ctx, batch[i])
		if r.progress != nil {
			progressMu.Lock()
			done++
			r.progress(Progress{Done: done, Total: total, Job: batch[i], Err: err})
			progressMu.Unlock()
		}
		return JobResult{Index: i, Job: batch[i], Result: res, Err: err}
	})
}

// RunAll executes the jobs like RunBatch but gathers the results back
// into job order, handling the streaming bookkeeping (index reassembly,
// dropped deliveries after cancellation) that every collecting caller
// would otherwise re-implement. Identical jobs — equal canonical hashes
// (Job.Hash) after the Runner's defaults resolve — are simulated once
// and the Result fanned out to every duplicate's slot, the in-process
// counterpart of the grid's content-addressed store (WithProgress
// callbacks consequently count unique jobs). The first real job failure
// cancels the remaining jobs and is returned as a *JobError naming the
// offending job; a cancelled ctx returns ctx.Err() without blaming any
// particular job. On error the results are nil.
func (r *Runner) RunAll(ctx context.Context, jobs []Job) ([]Result, error) {
	unique, groups := r.dedupe(jobs)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([]Result, len(jobs))
	got := 0
	var firstErr error
	for jr := range r.RunBatch(runCtx, unique) {
		switch {
		case jr.Err == nil:
			for _, orig := range groups[jr.Index] {
				out[orig] = jr.Result
			}
			got++
		case firstErr == nil && !errors.Is(jr.Err, context.Canceled) && !errors.Is(jr.Err, context.DeadlineExceeded):
			firstErr = &JobError{Index: groups[jr.Index][0], Job: jr.Job, Err: jr.Err}
			cancel()
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if got != len(unique) {
		// Defensive: without cancellation every job must be delivered.
		return nil, fmt.Errorf("repro: batch incomplete: %d of %d unique jobs delivered", got, len(unique))
	}
	return out, nil
}

// dedupe groups jobs by the canonical hash they will run under (defaults
// resolved), returning the unique jobs and, per unique job, the original
// indexes it stands for. A job that cannot be hashed (a marshalling
// failure) stays unique so its error surfaces individually.
func (r *Runner) dedupe(jobs []Job) ([]Job, [][]int) {
	seen := make(map[string]int, len(jobs))
	unique := make([]Job, 0, len(jobs))
	groups := make([][]int, 0, len(jobs))
	for i, j := range jobs {
		key, err := r.withDefaults(j).Hash()
		if err != nil {
			key = fmt.Sprintf("unhashable:%d", i)
		}
		if u, ok := seen[key]; ok {
			groups[u] = append(groups[u], i)
			continue
		}
		seen[key] = len(unique)
		unique = append(unique, j)
		groups = append(groups, []int{i})
	}
	return unique, groups
}

// RunTraceFile simulates a recorded binary trace file (replayed cyclically
// until n uops commit) under the runner's cancellation rules.
func (r *Runner) RunTraceFile(ctx context.Context, cfg Config, pol Policy, path string, n uint64) (Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return Result{}, err
	}
	defer f.Close()
	uops, err := trace.Read(f)
	if err != nil {
		return Result{}, err
	}
	if len(uops) == 0 {
		return Result{}, fmt.Errorf("repro: empty trace %s", path)
	}
	sim, err := core.Acquire(cfg, pol, trace.NewSliceSource(uops))
	if err != nil {
		return Result{}, err
	}
	defer core.Release(sim)
	return sim.RunCtx(ctx, n)
}
