// Command benchcheck gates the repository's performance trajectory: it
// diffs a freshly generated benchmark summary (the benchjson format)
// against the committed baseline BENCH_core.json and fails on
//
//   - any benchmark whose fresh ns/op floor (min over the -count runs)
//     is more than -max-regress-pct above the WORST floor the baseline's
//     invocations ever observed (ns_per_op_floor_worst — see benchjson),
//     after suite-drift normalization — see below — or
//   - any *_overhead_pct metric above -overhead-budget-pct — the
//     steering-policy dispatch, phase+UCB plumbing, and grid dispatch
//     overheads are features sold as "nearly free", so their cost is
//     budgeted, not just tracked — or
//   - an overhead metric present in the baseline but missing fresh (a
//     silently deleted guard is a failure, not a pass) — or
//   - any benchmark whose fresh allocs_per_op or bytes_per_op exceeds
//     the baseline by more than -max-alloc-regress-pct. Allocation
//     counts are deterministic (no machine-state drift, no retry): a
//     jump means garbage crept back into a measured loop — exactly the
//     regression the zero-steady-state-alloc core is guarded against —
//     or
//   - any benchmark named in -alloc-budgets whose fresh allocs_per_op
//     exceeds its explicit ceiling, independent of the committed
//     baseline (so an accidental baseline refresh cannot ratchet the
//     hot-loop benchmarks' allocation budget upward silently).
//
// Absolute ns/op is compared only when both summaries carry the same host
// fingerprint (CPU model and GOMAXPROCS, recorded by benchjson). Across
// hosts the ns/op gate is skipped with a note; allocs/op, bytes/op and the
// *_overhead_pct ratios do not depend on the machine and stay gated. A
// different Go version or OS/arch on the same host is only noted: timing
// a toolchain change is like timing a code change.
//
// Suite-drift normalization: raw ns/op does not compare across machine
// states — a busy host, a different CPU, or frequency scaling shifts the
// whole suite together by far more than any gate tolerates. A real
// regression is one benchmark moving against the rest. So when enough
// benchmarks exist on both sides, each fresh/baseline ratio is divided
// by the suite's median ratio before the gate applies: uniform drift
// cancels exactly (and is reported as a note), while a single benchmark
// 10% slower than its peers still fails. The *_overhead_pct metrics are
// already machine-independent ratios and are compared unnormalized.
//
// Benchmarks that exist on only one side are reported but do not fail
// the gate: additions are normal growth and removals are visible in
// review.
//
// Even after drift normalization, individual benchmarks on shared CI
// hosts show invocation-level noise (CPU migration, layout effects)
// that one sweep cannot average away. The gate is therefore two-phase:
// -write-regressed emits the names of benchmarks that tripped the ns/op
// gate so the caller can rerun JUST those with more repetitions, and
// -retry folds that focused rerun back in, gating on the per-benchmark
// minimum across both (more samples only sharpen a floor — a real
// regression's floor is genuinely higher and reproduces).
// scripts/bench_check.sh drives the loop; `make bench-check` wires it up.
//
// Usage:
//
//	benchcheck -baseline BENCH_core.json -fresh fresh.json [-retry retry.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// summary mirrors the benchjson output fields the gate reads.
type summary struct {
	GoVersion  string  `json:"go_version"`
	CPU        string  `json:"cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Benchmarks []bench `json:"benchmarks"`

	PolicyOverheadPct       *float64 `json:"policy_overhead_pct"`
	PhaseUCBOverheadPct     *float64 `json:"phase_ucb_overhead_pct"`
	GridDispatchOverheadPct *float64 `json:"grid_dispatch_overhead_pct"`
}

type bench struct {
	Name       string  `json:"name"`
	NsPerOpMin float64 `json:"ns_per_op_min"`
	// NsPerOpFloorWorst (from a multi-invocation baseline) is the
	// slowest per-invocation floor — how slow this benchmark's best case
	// gets as machine state re-rolls. The gate compares a fresh floor
	// against it, so a benchmark is only "regressed" when it is slower
	// than the baseline has EVER seen it, by more than the gate. Falls
	// back to NsPerOpMin when absent.
	NsPerOpFloorWorst float64 `json:"ns_per_op_floor_worst"`
	BytesPerOp        float64 `json:"bytes_per_op"`
	AllocsPerOp       uint64  `json:"allocs_per_op"`
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_core.json", "committed baseline summary")
	freshPath := flag.String("fresh", "", "freshly generated summary to gate (required)")
	retryPath := flag.String("retry", "", "optional second summary from a focused rerun; the per-benchmark minimum of the two is gated")
	maxRegress := flag.Float64("max-regress-pct", 10, "max tolerated ns/op regression per benchmark")
	budget := flag.Float64("overhead-budget-pct", 5, "budget for every *_overhead_pct metric")
	maxAllocRegress := flag.Float64("max-alloc-regress-pct", 10, "max tolerated allocs/op or bytes/op growth per benchmark (deterministic: never retried)")
	allocBudgets := flag.String("alloc-budgets", "", "explicit allocs/op ceilings, comma-separated Name=N pairs, gated regardless of baseline")
	writeRegressed := flag.String("write-regressed", "", "write the names of benchmarks failing the ns/op gate to this file (one per line) for a focused retry")
	flag.Parse()
	if *freshPath == "" {
		fatal(fmt.Errorf("benchcheck: -fresh is required"))
	}

	base, err := load(*baselinePath)
	if err != nil {
		fatal(err)
	}
	fresh, err := load(*freshPath)
	if err != nil {
		fatal(err)
	}
	// The drift factor is estimated from the UNMERGED phase-1 sweep: a
	// focused retry sharpens a few benchmarks' floors, which says nothing
	// about the host — folding it into the median would shift every
	// other benchmark's verdict between phases.
	drift, driftNote := suiteDrift(base, fresh)
	if *retryPath != "" {
		retry, err := load(*retryPath)
		if err != nil {
			fatal(err)
		}
		fresh = mergeMin(fresh, retry)
	}

	budgets, err := parseAllocBudgets(*allocBudgets)
	if err != nil {
		fatal(err)
	}
	failures, notes, regressed := compareAt(base, fresh, drift, driftNote, *maxRegress, *budget)
	allocFailures, allocNotes := compareAllocs(base, fresh, *maxAllocRegress, budgets)
	failures = append(failures, allocFailures...)
	notes = append(notes, allocNotes...)
	if *writeRegressed != "" {
		var buf []byte
		for _, n := range regressed {
			buf = append(buf, n...)
			buf = append(buf, '\n')
		}
		if err := os.WriteFile(*writeRegressed, buf, 0o644); err != nil {
			fatal(err)
		}
	}
	for _, n := range notes {
		fmt.Fprintln(os.Stderr, "benchcheck:", n)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchcheck: FAIL:", f)
		}
		os.Exit(1)
	}
	timing := fmt.Sprintf("within %.0f%%", *maxRegress)
	if base.host() != fresh.host() {
		timing = "(ns/op not compared across hosts)"
	}
	fmt.Fprintf(os.Stderr, "benchcheck: OK — %d benchmarks %s, overheads within %.0f%%\n",
		len(fresh.Benchmarks), timing, *budget)
}

// host is the fingerprint absolute timings are comparable within.
func (s summary) host() string {
	cpu := s.CPU
	if cpu == "" {
		cpu = "unknown CPU"
	}
	return fmt.Sprintf("%s, GOMAXPROCS=%d", cpu, s.GOMAXPROCS)
}

// mergeMin folds a focused-rerun summary into the full sweep: per
// benchmark the smaller ns/op min wins (more repetitions of a noisy
// benchmark only sharpen its floor), and each overhead metric takes the
// smaller of the sides that measured it.
func mergeMin(a, b summary) summary {
	a.Benchmarks = append([]bench(nil), a.Benchmarks...)
	idx := map[string]int{}
	for i, bm := range a.Benchmarks {
		idx[bm.Name] = i
	}
	for _, bm := range b.Benchmarks {
		if i, ok := idx[bm.Name]; ok {
			if bm.NsPerOpMin < a.Benchmarks[i].NsPerOpMin {
				a.Benchmarks[i].NsPerOpMin = bm.NsPerOpMin
			}
		} else {
			a.Benchmarks = append(a.Benchmarks, bm)
		}
	}
	a.PolicyOverheadPct = minPtr(a.PolicyOverheadPct, b.PolicyOverheadPct)
	a.PhaseUCBOverheadPct = minPtr(a.PhaseUCBOverheadPct, b.PhaseUCBOverheadPct)
	a.GridDispatchOverheadPct = minPtr(a.GridDispatchOverheadPct, b.GridDispatchOverheadPct)
	return a
}

func minPtr(a, b *float64) *float64 {
	switch {
	case a == nil:
		return b
	case b == nil || *a <= *b:
		return a
	default:
		return b
	}
}

// compare produces the gate verdict: hard failures, informational
// notes, and the names of benchmarks that failed the ns/op gate (the
// candidates for a focused retry — overhead-budget failures are not
// retryable and are excluded). It is pure so the policy is testable
// without files.
func compare(base, fresh summary, maxRegress, budget float64) (failures, notes, regressed []string) {
	drift, driftNote := suiteDrift(base, fresh)
	return compareAt(base, fresh, drift, driftNote, maxRegress, budget)
}

// suiteDrift estimates host-state drift as the median fresh/baseline
// ratio over benchmarks both sides know. With too few shared benchmarks
// the median IS the candidate regression, so normalization only kicks
// in past a floor. The note is empty when the drift is negligible.
func suiteDrift(base, fresh summary) (float64, string) {
	known := map[string]float64{}
	for _, b := range base.Benchmarks {
		known[b.Name] = b.NsPerOpMin
	}
	var ratios []float64
	for _, b := range fresh.Benchmarks {
		if baseMin := known[b.Name]; baseMin > 0 && b.NsPerOpMin > 0 {
			ratios = append(ratios, b.NsPerOpMin/baseMin)
		}
	}
	if len(ratios) < minSuiteForDrift {
		return 1, ""
	}
	drift := median(ratios)
	note := ""
	if pct := 100 * (drift - 1); pct > 1 || pct < -1 {
		note = fmt.Sprintf(
			"suite drift %+.1f%% (median over %d shared benchmarks) — normalized out as machine state, not regression",
			pct, len(ratios))
	}
	return drift, note
}

// compareAt is compare with the drift factor pinned by the caller (the
// two-phase flow estimates it once, from the full phase-1 sweep).
func compareAt(base, fresh summary, drift float64, driftNote string, maxRegress, budget float64) (failures, notes, regressed []string) {
	if base.GoVersion != fresh.GoVersion || base.GOOS != fresh.GOOS || base.GOARCH != fresh.GOARCH {
		notes = append(notes, fmt.Sprintf(
			"environment drift: baseline %s %s/%s vs fresh %s %s/%s (timings compare across it on one host)",
			base.GoVersion, base.GOOS, base.GOARCH, fresh.GoVersion, fresh.GOOS, fresh.GOARCH))
	}
	sameHost := base.host() == fresh.host()
	if !sameHost {
		notes = append(notes, fmt.Sprintf(
			"host fingerprint differs: baseline %q vs fresh %q — absolute ns/op not compared; allocs/op, bytes/op and overhead ratios still gated",
			base.host(), fresh.host()))
	} else if driftNote != "" {
		notes = append(notes, driftNote)
	}

	known := map[string]bench{}
	for _, b := range base.Benchmarks {
		known[b.Name] = b
	}

	seen := map[string]bool{}
	for _, b := range fresh.Benchmarks {
		seen[b.Name] = true
		bb, ok := known[b.Name]
		if !ok {
			notes = append(notes, fmt.Sprintf("new benchmark %s (no baseline; will gate once committed)", b.Name))
			continue
		}
		if !sameHost {
			continue
		}
		// Regressions measure against the worst floor the baseline's
		// invocations observed; improvements against its best, so a
		// genuine speedup is suggested for a baseline refresh even on a
		// benchmark with a wide floor spread.
		baseWorst := bb.NsPerOpFloorWorst
		if baseWorst <= 0 {
			baseWorst = bb.NsPerOpMin
		}
		if bb.NsPerOpMin <= 0 || baseWorst <= 0 {
			continue
		}
		pct := 100 * (b.NsPerOpMin - baseWorst*drift) / (baseWorst * drift)
		if pct > maxRegress {
			failures = append(failures, fmt.Sprintf("%s regressed %.1f%% vs suite (%.4g → %.4g ns/op, gate %.0f%%)",
				b.Name, pct, baseWorst, b.NsPerOpMin, maxRegress))
			regressed = append(regressed, b.Name)
		} else if gain := 100 * (b.NsPerOpMin - bb.NsPerOpMin*drift) / (bb.NsPerOpMin * drift); gain < -maxRegress {
			notes = append(notes, fmt.Sprintf("%s improved %.1f%% vs suite (%.4g → %.4g ns/op) — consider refreshing the baseline",
				b.Name, -gain, bb.NsPerOpMin, b.NsPerOpMin))
		}
	}
	for _, b := range base.Benchmarks {
		if !seen[b.Name] {
			notes = append(notes, fmt.Sprintf("benchmark %s vanished from the fresh run", b.Name))
		}
	}

	overheads := []struct {
		name        string
		base, fresh *float64
	}{
		{"policy_overhead_pct", base.PolicyOverheadPct, fresh.PolicyOverheadPct},
		{"phase_ucb_overhead_pct", base.PhaseUCBOverheadPct, fresh.PhaseUCBOverheadPct},
		{"grid_dispatch_overhead_pct", base.GridDispatchOverheadPct, fresh.GridDispatchOverheadPct},
	}
	for _, o := range overheads {
		switch {
		case o.fresh == nil && o.base != nil:
			failures = append(failures, fmt.Sprintf("%s missing from the fresh run (baseline has %.2f%%)", o.name, *o.base))
		case o.fresh != nil && *o.fresh > budget:
			failures = append(failures, fmt.Sprintf("%s = %.2f%% over its %.0f%% budget", o.name, *o.fresh, budget))
		}
	}
	return failures, notes, regressed
}

// parseAllocBudgets decodes "Name=N,Name=N" into explicit ceilings.
func parseAllocBudgets(spec string) (map[string]uint64, error) {
	budgets := map[string]uint64{}
	if spec == "" {
		return budgets, nil
	}
	for _, pair := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("benchcheck: malformed -alloc-budgets entry %q (want Name=N)", pair)
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("benchcheck: -alloc-budgets %s: %w", name, err)
		}
		budgets[name] = n
	}
	return budgets, nil
}

// compareAllocs gates the allocation profile. Allocation counts are
// deterministic — no drift normalization, no retry phase: a fresh count
// above the baseline by more than the gate is a real change in what the
// code allocates. Explicit budgets bind even when the committed baseline
// itself is worse (a poisoned baseline must not grandfather garbage in),
// and a budget naming a benchmark absent from the fresh run fails, so
// deleting a gated benchmark is loud. Alloc deltas beyond the gate in
// the improving direction surface as notes: a big drop is worth folding
// into the committed baseline.
func compareAllocs(base, fresh summary, maxRegressPct float64, budgets map[string]uint64) (failures, notes []string) {
	known := map[string]bench{}
	for _, b := range base.Benchmarks {
		known[b.Name] = b
	}
	seen := map[string]bool{}
	for _, b := range fresh.Benchmarks {
		seen[b.Name] = true
		if budget, ok := budgets[b.Name]; ok && b.AllocsPerOp > budget {
			failures = append(failures, fmt.Sprintf("%s allocates %d allocs/op, over its explicit budget of %d",
				b.Name, b.AllocsPerOp, budget))
		}
		bb, ok := known[b.Name]
		if !ok {
			continue
		}
		if bb.AllocsPerOp > 0 {
			pct := 100 * (float64(b.AllocsPerOp) - float64(bb.AllocsPerOp)) / float64(bb.AllocsPerOp)
			if pct > maxRegressPct {
				failures = append(failures, fmt.Sprintf("%s allocs/op grew %.1f%% (%d → %d, gate %.0f%%)",
					b.Name, pct, bb.AllocsPerOp, b.AllocsPerOp, maxRegressPct))
			} else if pct < -maxRegressPct {
				notes = append(notes, fmt.Sprintf("%s allocs/op dropped %.1f%% (%d → %d) — consider refreshing the baseline",
					b.Name, -pct, bb.AllocsPerOp, b.AllocsPerOp))
			}
		}
		if bb.BytesPerOp > 0 {
			pct := 100 * (b.BytesPerOp - bb.BytesPerOp) / bb.BytesPerOp
			if pct > maxRegressPct {
				failures = append(failures, fmt.Sprintf("%s bytes/op grew %.1f%% (%.4g → %.4g, gate %.0f%%)",
					b.Name, pct, bb.BytesPerOp, b.BytesPerOp, maxRegressPct))
			}
		}
	}
	for name := range budgets {
		if !seen[name] {
			failures = append(failures, fmt.Sprintf("%s has an explicit alloc budget but is missing from the fresh run", name))
		}
	}
	sort.Strings(failures)
	return failures, notes
}

// minSuiteForDrift is the smallest shared-benchmark count that makes the
// median ratio a drift estimate rather than the regression itself: with
// a handful of benchmarks, one genuinely slow result drags the median
// and would normalize itself away.
const minSuiteForDrift = 8

// median returns the middle value (mean of the two middles for even
// counts). The input is reordered.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

func load(path string) (summary, error) {
	var s summary
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("benchcheck: decoding %s: %w", path, err)
	}
	if len(s.Benchmarks) == 0 {
		return s, fmt.Errorf("benchcheck: %s holds no benchmarks", path)
	}
	return s, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
