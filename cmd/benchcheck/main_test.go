package main

import (
	"strings"
	"testing"
)

func pctPtr(v float64) *float64 { return &v }

// bm builds a single-invocation benchmark entry (floor spread unknown).
func bm(name string, min float64) bench {
	return bench{Name: name, NsPerOpMin: min}
}

func mkSummary(over *float64, benches ...bench) summary {
	return summary{
		GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64",
		Benchmarks:          benches,
		PhaseUCBOverheadPct: over,
	}
}

func TestCompareCleanRun(t *testing.T) {
	base := mkSummary(pctPtr(3.0), bm("BenchmarkA", 100), bm("BenchmarkB", 2000))
	fresh := mkSummary(pctPtr(4.2), bm("BenchmarkA", 105), bm("BenchmarkB", 1900))
	failures, _, _ := compare(base, fresh, 10, 5)
	if len(failures) != 0 {
		t.Fatalf("clean run failed the gate: %v", failures)
	}
}

func TestCompareRegression(t *testing.T) {
	base := mkSummary(nil, bm("BenchmarkA", 100))
	fresh := mkSummary(nil, bm("BenchmarkA", 111))
	failures, _, _ := compare(base, fresh, 10, 5)
	if len(failures) != 1 || !strings.Contains(failures[0], "BenchmarkA regressed 11.0%") {
		t.Fatalf("11%% regression not caught: %v", failures)
	}
	// Exactly at the gate passes (the gate is strict-greater).
	failures, _, _ = compare(base, mkSummary(nil, bm("BenchmarkA", 110)), 10, 5)
	if len(failures) != 0 {
		t.Fatalf("10%% on a 10%% gate must pass: %v", failures)
	}
}

// TestCompareOverheadBudget pins the scenario from the gate's design
// brief: phase_ucb_overhead_pct creeping to 5.7% against a 5% budget
// must fail loudly, not land silently.
func TestCompareOverheadBudget(t *testing.T) {
	base := mkSummary(pctPtr(4.0), bm("BenchmarkA", 100))
	fresh := mkSummary(pctPtr(5.7), bm("BenchmarkA", 100))
	failures, _, _ := compare(base, fresh, 10, 5)
	if len(failures) != 1 || !strings.Contains(failures[0], "phase_ucb_overhead_pct = 5.70% over its 5% budget") {
		t.Fatalf("over-budget overhead not caught: %v", failures)
	}
}

func TestCompareOverheadVanished(t *testing.T) {
	base := mkSummary(pctPtr(4.0), bm("BenchmarkA", 100))
	fresh := mkSummary(nil, bm("BenchmarkA", 100))
	failures, _, _ := compare(base, fresh, 10, 5)
	if len(failures) != 1 || !strings.Contains(failures[0], "phase_ucb_overhead_pct missing") {
		t.Fatalf("vanished overhead metric not caught: %v", failures)
	}
}

// TestCompareSuiteDrift pins the normalization: a busy host slowing the
// WHOLE suite 15% is machine state and must pass, while one benchmark
// slowing 30% against that same drift is a real regression and must
// still fail.
func TestCompareSuiteDrift(t *testing.T) {
	var baseBench, driftBench, outlierBench []bench
	for i := 0; i < 10; i++ {
		name := "Benchmark" + string(rune('A'+i))
		baseBench = append(baseBench, bm(name, 1000))
		driftBench = append(driftBench, bm(name, 1150))
		v := 1150.0
		if i == 0 {
			v = 1300
		}
		outlierBench = append(outlierBench, bm(name, v))
	}

	failures, notes, _ := compare(mkSummary(nil, baseBench...), mkSummary(nil, driftBench...), 10, 5)
	if len(failures) != 0 {
		t.Fatalf("uniform 15%% suite drift must normalize out: %v", failures)
	}
	if joined := strings.Join(notes, "\n"); !strings.Contains(joined, "suite drift +15.0%") {
		t.Errorf("drift note missing:\n%s", joined)
	}

	failures, _, _ = compare(mkSummary(nil, baseBench...), mkSummary(nil, outlierBench...), 10, 5)
	if len(failures) != 1 || !strings.Contains(failures[0], "BenchmarkA regressed 13.0% vs suite") {
		t.Fatalf("outlier against the drifted suite not caught: %v", failures)
	}
}

// TestCompareWorstFloor pins the noise-model gate: a multi-invocation
// baseline records how slow a benchmark's floor gets as machine state
// re-rolls, and regressions measure against THAT — while improvement
// hints still measure against the best floor.
func TestCompareWorstFloor(t *testing.T) {
	noisy := bench{Name: "BenchmarkNoisy", NsPerOpMin: 100, NsPerOpFloorWorst: 125}
	base := mkSummary(nil, noisy)

	// 30% over the best floor but only 4% over the worst observed one:
	// within the machine's demonstrated spread, not a regression.
	failures, _, _ := compare(base, mkSummary(nil, bm("BenchmarkNoisy", 130)), 10, 5)
	if len(failures) != 0 {
		t.Fatalf("fresh floor inside the baseline's observed spread must pass: %v", failures)
	}
	// 12% over even the worst floor: regressed.
	failures, _, _ = compare(base, mkSummary(nil, bm("BenchmarkNoisy", 140)), 10, 5)
	if len(failures) != 1 || !strings.Contains(failures[0], "BenchmarkNoisy regressed 12.0%") {
		t.Fatalf("regression past the worst floor not caught: %v", failures)
	}
	// Improvements still reference the best floor.
	_, notes, _ := compare(base, mkSummary(nil, bm("BenchmarkNoisy", 85)), 10, 5)
	if joined := strings.Join(notes, "\n"); !strings.Contains(joined, "BenchmarkNoisy improved 15.0%") {
		t.Errorf("improvement vs best floor not noted:\n%s", joined)
	}
}

// TestMergeMinRetry pins the two-phase flow: a focused rerun that hits
// a lower floor clears the suspect, its names came out of compare, and
// overheads take the smaller measured side.
func TestMergeMinRetry(t *testing.T) {
	base := mkSummary(pctPtr(3.0), bm("BenchmarkA", 100), bm("BenchmarkB", 500))
	fresh := mkSummary(pctPtr(4.0), bm("BenchmarkA", 130), bm("BenchmarkB", 505))
	failures, _, regressed := compare(base, fresh, 10, 5)
	if len(failures) != 1 || len(regressed) != 1 || regressed[0] != "BenchmarkA" {
		t.Fatalf("expected BenchmarkA as the retry candidate: failures=%v regressed=%v", failures, regressed)
	}

	// The retry reaches the real floor: merged, the gate clears.
	retry := mkSummary(pctPtr(3.5), bm("BenchmarkA", 102))
	merged := mergeMin(fresh, retry)
	if failures, _, _ := compare(base, merged, 10, 5); len(failures) != 0 {
		t.Fatalf("retry at the floor must clear the gate: %v", failures)
	}
	if got := *merged.PhaseUCBOverheadPct; got != 3.5 {
		t.Errorf("merged overhead = %v, want the smaller side 3.5", got)
	}
	if n := len(merged.Benchmarks); n != 2 {
		t.Errorf("merge changed the benchmark set: %d entries", n)
	}

	// A real regression's floor reproduces and still fails.
	stillSlow := mergeMin(fresh, mkSummary(nil, bm("BenchmarkA", 128)))
	if failures, _, _ := compare(base, stillSlow, 10, 5); len(failures) != 1 {
		t.Fatalf("reproduced regression must still fail: %v", failures)
	}
}

func TestCompareNotesOnly(t *testing.T) {
	base := mkSummary(nil, bm("BenchmarkA", 100), bm("BenchmarkGone", 50))
	fresh := summary{
		GoVersion: "go1.25.0", GOOS: "linux", GOARCH: "arm64",
		Benchmarks: []bench{bm("BenchmarkA", 50), bm("BenchmarkNew", 70)},
	}
	failures, notes, _ := compare(base, fresh, 10, 5)
	if len(failures) != 0 {
		t.Fatalf("additions/removals/improvements must not fail the gate: %v", failures)
	}
	joined := strings.Join(notes, "\n")
	for _, want := range []string{"environment drift", "BenchmarkNew", "BenchmarkGone vanished", "BenchmarkA improved 50.0%"} {
		if !strings.Contains(joined, want) {
			t.Errorf("notes missing %q:\n%s", want, joined)
		}
	}
}

// TestCompareHostFingerprint: a baseline from another host (CPU model or
// GOMAXPROCS) cannot judge absolute ns/op, so a 50% slower benchmark
// passes with a note, while the machine-independent gates still bind.
func TestCompareHostFingerprint(t *testing.T) {
	base := mkSummary(pctPtr(3.0), abm("BenchmarkA", 100, 800, 100_000))
	base.CPU, base.GOMAXPROCS = "Intel(R) Xeon(R) Processor", 2
	for _, host := range []struct {
		cpu   string
		procs int
	}{{"AMD EPYC 7763 64-Core Processor", 2}, {"Intel(R) Xeon(R) Processor", 4}, {"", 2}} {
		fresh := mkSummary(pctPtr(5.7), abm("BenchmarkA", 150, 40_000, 100_000))
		fresh.CPU, fresh.GOMAXPROCS = host.cpu, host.procs
		failures, notes, regressed := compare(base, fresh, 10, 5)
		if len(regressed) != 0 {
			t.Errorf("%+v: ns/op compared across hosts: %v", host, regressed)
		}
		if len(failures) != 1 || !strings.Contains(failures[0], "phase_ucb_overhead_pct = 5.70%") {
			t.Errorf("%+v: overhead budget must still bind across hosts: %v", host, failures)
		}
		if joined := strings.Join(notes, "\n"); !strings.Contains(joined, "host fingerprint differs") ||
			!strings.Contains(joined, "absolute ns/op not compared") {
			t.Errorf("%+v: skipped timing comparison not reported:\n%s", host, joined)
		}
		if failures, _ := compareAllocs(base, fresh, 10, nil); len(failures) != 1 ||
			!strings.Contains(failures[0], "allocs/op grew") {
			t.Errorf("%+v: alloc gate must still bind across hosts: %v", host, failures)
		}
	}

	// The same host still gates ns/op.
	same := mkSummary(pctPtr(3.0), abm("BenchmarkA", 150, 800, 100_000))
	same.CPU, same.GOMAXPROCS = base.CPU, base.GOMAXPROCS
	if _, _, regressed := compare(base, same, 10, 5); len(regressed) != 1 {
		t.Errorf("a 50%% regression on the same host must fail: %v", regressed)
	}
}

// abm builds a benchmark entry with an allocation profile.
func abm(name string, min float64, allocs uint64, bytes float64) bench {
	return bench{Name: name, NsPerOpMin: min, AllocsPerOp: allocs, BytesPerOp: bytes}
}

func TestCompareAllocsRegression(t *testing.T) {
	base := mkSummary(nil, abm("BenchmarkA", 100, 800, 100_000))
	fresh := mkSummary(nil, abm("BenchmarkA", 100, 40_000, 2_000_000))
	failures, _ := compareAllocs(base, fresh, 10, nil)
	if len(failures) != 2 {
		t.Fatalf("alloc+bytes blowup must fail twice, got %v", failures)
	}
	if !strings.Contains(failures[0], "allocs/op grew") || !strings.Contains(failures[1], "bytes/op grew") {
		t.Fatalf("unexpected failure text: %v", failures)
	}
	// Within the gate passes; a large improvement is a note, not a failure.
	failures, notes := compareAllocs(base, mkSummary(nil, abm("BenchmarkA", 100, 850, 104_000)), 10, nil)
	if len(failures) != 0 {
		t.Fatalf("in-gate alloc jitter must pass: %v", failures)
	}
	_, notes = compareAllocs(base, mkSummary(nil, abm("BenchmarkA", 100, 80, 10_000)), 10, nil)
	if len(notes) != 1 || !strings.Contains(notes[0], "allocs/op dropped") {
		t.Fatalf("10x alloc improvement should suggest a baseline refresh: %v", notes)
	}
	_ = notes
}

func TestCompareAllocsExplicitBudget(t *testing.T) {
	// The explicit budget binds even when the committed baseline is worse:
	// a poisoned baseline cannot grandfather garbage back in.
	base := mkSummary(nil, abm("BenchmarkHot", 100, 50_000, 2_000_000))
	fresh := mkSummary(nil, abm("BenchmarkHot", 100, 50_000, 2_000_000))
	failures, _ := compareAllocs(base, fresh, 10, map[string]uint64{"BenchmarkHot": 2_500})
	if len(failures) != 1 || !strings.Contains(failures[0], "over its explicit budget") {
		t.Fatalf("budget must bind regardless of baseline: %v", failures)
	}
	// A budget naming a vanished benchmark fails rather than silently passing.
	failures, _ = compareAllocs(base, mkSummary(nil, abm("BenchmarkOther", 1, 1, 1)), 10,
		map[string]uint64{"BenchmarkHot": 2_500})
	found := false
	for _, f := range failures {
		if strings.Contains(f, "missing from the fresh run") {
			found = true
		}
	}
	if !found {
		t.Fatalf("budgeted benchmark vanished without failure: %v", failures)
	}
}

func TestParseAllocBudgets(t *testing.T) {
	budgets, err := parseAllocBudgets("BenchmarkA=100, BenchmarkB=2500")
	if err != nil || budgets["BenchmarkA"] != 100 || budgets["BenchmarkB"] != 2500 {
		t.Fatalf("parse failed: %v %v", budgets, err)
	}
	if _, err := parseAllocBudgets("BenchmarkA"); err == nil {
		t.Fatal("malformed entry must be rejected")
	}
	if budgets, err := parseAllocBudgets(""); err != nil || len(budgets) != 0 {
		t.Fatal("empty spec must parse to no budgets")
	}
}
