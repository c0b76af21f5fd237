package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro"
)

func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	for n := 1; n <= 5000; n++ {
		pm := tailLevel(n)
		if pm == 500 {
			if beyond := n - rank(n, 900); beyond >= 10 {
				t.Fatalf("n=%d: fell back to the median though p90 keeps %d samples beyond", n, beyond)
			}
			continue
		}
		if beyond := n - rank(n, pm); beyond < 10 {
			t.Fatalf("n=%d: p%g keeps only %d samples beyond", n, float64(pm)/10, beyond)
		}
		for _, higher := range tailLevels {
			if higher > pm && n-rank(n, higher) >= 10 {
				t.Fatalf("n=%d: chose p%g though p%g keeps ten beyond", n, float64(pm)/10, float64(higher)/10)
			}
		}
	}
	for n, want := range map[int]int{99: 500, 100: 900, 999: 900, 1000: 990, 10000: 999} {
		if got := tailLevel(n); got != want {
			t.Errorf("tailLevel(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted input
	}
	if got := pctl(xs, 900); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
	if got := median(xs); got != 50 {
		t.Errorf("median of 1..100 = %g, want 50", got)
	}
	if got := pctl(nil, 500); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
}

// result builds a Result of 100k committed uops over the given wide
// cycles, with the given copies per 1000 committed uops.
func result(cycles, copiesPerK uint64) repro.Result {
	var r repro.Result
	r.Metrics.Committed = 100_000
	r.Metrics.WideCycles = cycles
	r.Metrics.CopiesCreated = copiesPerK * 100
	return r
}

func TestPaperGapHandBuilt(t *testing.T) {
	refs := []paperRef{
		{Name: "a_speedup", Paper: 10, Metric: "speedup", Policy: "8_8_8"},
		{Name: "b_copies", Paper: 5, Metric: "copies", Policy: "8_8_8+BR"},
	}
	f888, _ := repro.PolicyByName("8_8_8")
	fbr, _ := repro.PolicyByName("8_8_8+BR")
	var jobs []repro.Job
	var results []repro.Result
	add := func(app string, pol repro.Policy, r repro.Result) {
		w, err := repro.WorkloadByName(app)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, repro.Job{Policy: pol, Workload: w, N: 100_000})
		results = append(results, r)
	}
	// gcc: 8_8_8 speedup +25%, BR copies 10%; gzip: -20%, 2%.
	add("gcc", repro.PolicyBaseline(), result(100_000, 0))
	add("gcc", f888, result(80_000, 0))
	add("gcc", fbr, result(100_000, 100))
	add("gzip", repro.PolicyBaseline(), result(100_000, 0))
	add("gzip", f888, result(125_000, 0))
	add("gzip", fbr, result(100_000, 20))

	g, err := computePaperGap(refs, jobs, results)
	if err != nil {
		t.Fatal(err)
	}
	// Means: speedup 2.5% (gap 7.5), copies 6% (gap 1); mean gap 4.25.
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if !near(g.Measured["a_speedup"], 2.5) || !near(g.Gap["a_speedup"], 7.5) {
		t.Errorf("speedup: measured %g gap %g, want 2.5 and 7.5", g.Measured["a_speedup"], g.Gap["a_speedup"])
	}
	if !near(g.Measured["b_copies"], 6) || !near(g.Gap["b_copies"], 1) {
		t.Errorf("copies: measured %g gap %g, want 6 and 1", g.Measured["b_copies"], g.Gap["b_copies"])
	}
	if !near(g.MeanPP, 4.25) {
		t.Errorf("paper_gap_pp = %g, want 4.25", g.MeanPP)
	}

	if _, err := computePaperGap(refs, jobs[:2], results[:2]); err == nil {
		t.Error("a missing rung went unreported")
	}
}

func TestPaperRefsLoad(t *testing.T) {
	refs, err := loadPaperRefs()
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 5 {
		t.Fatalf("%d paper references, want 5", len(refs))
	}
	for _, r := range refs {
		if r.Source == "" || r.Status != "re-check against paper text" {
			t.Errorf("%s: source %q status %q", r.Name, r.Source, r.Status)
		}
		if _, err := repro.PolicyByName(r.Policy); err != nil {
			t.Errorf("%s: %v", r.Name, err)
		}
	}
}

func TestSelfTimeNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "job", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 3, Parent: 1, Name: "c", Start: 15, End: 20},
		{ID: 4, Parent: -1, Name: "job", Start: 200, End: 250},
		{ID: 5, Parent: 4, Name: "b", Start: 240, End: 300}, // outlives its parent
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"job": (100 - 50) + (50 - 10),
		"a":   30 - 5,
		"b":   30 + 60,
		"c":   5,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestPoolStats(t *testing.T) {
	// Two workers: one runs [0,50] then [50,100]; the other [0,80]. The
	// last dispatch is at 50, the first completion after it at 80.
	jobs := []span{{Start: 0, End: 50}, {Start: 50, End: 100}, {Start: 0, End: 80}}
	busy, tail := poolStats(jobs, 2, 100)
	if busy != 0.9 || tail != 20 {
		t.Errorf("busy %g tail %v, want 0.9 and 20ns", busy, tail)
	}
}

func TestSeedZeroKeepsCommittedProfiles(t *testing.T) {
	if got, want := profiles(0, 0), repro.SpecInt2000(); !reflect.DeepEqual(got, want) {
		t.Error("seed 0 changed the committed profiles")
	}
}

func TestNonZeroSeedChangesEveryProfileSeed(t *testing.T) {
	committed := repro.SpecInt2000()
	for _, seed := range []int64{1, 2, 42, -7, math.MaxInt64} {
		got := profiles(seed, 0)
		seen := map[int64]bool{}
		for i, w := range got {
			if w.Params.Seed == committed[i].Params.Seed {
				t.Errorf("seed %d left %s at its committed seed", seed, w.Name)
			}
			if w.Params.Seed < 0 || seen[w.Params.Seed] {
				t.Errorf("seed %d gave %s seed %d (negative or repeated)", seed, w.Name, w.Params.Seed)
			}
			seen[w.Params.Seed] = true
			p := w.Params
			p.Seed = committed[i].Params.Seed
			if p != committed[i].Params {
				t.Errorf("seed %d changed more than the seed of %s", seed, w.Name)
			}
		}
	}
}

func TestGridJobHashesUnique(t *testing.T) {
	jobs := gridJobs(0)
	seen := map[string]bool{}
	for _, j := range jobs {
		h, err := j.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if seen[h] {
			t.Fatalf("duplicate grid job %s", j.Label())
		}
		seen[h] = true
	}
	if len(jobs) != gridSeeds*12*8 {
		t.Errorf("%d grid jobs, want %d", len(jobs), gridSeeds*12*8)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed []metricSpec) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the command prints %d", kind, len(declared), len(printed))
			return
		}
		for i, d := range declared {
			if d.Name != printed[i].name || d.Unit != printed[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command prints %s [%s]",
					kind, i, d.Name, d.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, e2eMetrics)
	check("per_layer", doc.PerLayer, layerMetrics)
}
