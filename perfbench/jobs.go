package main

import (
	"fmt"

	"repro"
)

// Workload job sets. Every job carries an explicit Warmup so its
// canonical hash is the same in-process and on the wire.

const (
	studyN      = 120_000 // sweep -study ladder's default measured budget
	studyWarmup = 30_000
	gridN       = 5_000
	gridWarmup  = 1_250
	gridSeeds   = 2 // replicas of the ladder job set in the grid workload

	// studyReplicas is how many re-seeded copies of an in-process study
	// a run cycles through, one per pass. Re-seeded programs differ in
	// cost by up to a fifth, so a run that timed one copy would report
	// its seed's luck; cycling averages it within the run.
	studyReplicas = 3
)

// dynamicPolicies are the run-time selectors of the dynamic workload,
// by registry name.
var dynamicPolicies = []string{"tournament", "occupancy", "ucb", "ucb-ed2"}

// mixSeed derives a profile seed from its committed seed, the benchmark
// seed and a replica index. Seed 0, replica 0 keeps the committed seed;
// anything else is hashed in (splitmix64 finalizer), so every profile
// gets a fresh, non-negative, well-spread seed.
func mixSeed(orig, seed int64, replica int) int64 {
	if seed == 0 && replica == 0 {
		return orig
	}
	x := uint64(orig) ^ uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(replica+1)*0xD6E8FEB86659FD93
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}

// profiles returns the 12 SPEC Int 2000 profiles with their seeds mixed.
func profiles(seed int64, replica int) []repro.Workload {
	apps := repro.SpecInt2000()
	for i := range apps {
		apps[i].Params.Seed = mixSeed(apps[i].Params.Seed, seed, replica)
	}
	return apps
}

// ladderJobs is sweep -study ladder's job set: per app the baseline
// machine, then every rung of the static policy ladder.
func ladderJobs(apps []repro.Workload, n, warm uint64) []repro.Job {
	var jobs []repro.Job
	for _, w := range apps {
		jobs = append(jobs, repro.Job{
			Config: repro.BaselineConfig(), Policy: repro.PolicyBaseline(),
			Workload: w, N: n, Warmup: warm,
		})
		for _, pol := range repro.PolicyLadder() {
			jobs = append(jobs, repro.Job{Policy: pol, Workload: w, N: n, Warmup: warm})
		}
	}
	return jobs
}

// dynamicJobs runs every app under each run-time selector.
func dynamicJobs(apps []repro.Workload, n, warm uint64) ([]repro.Job, error) {
	var jobs []repro.Job
	for _, w := range apps {
		for _, name := range dynamicPolicies {
			pol, err := repro.PolicyByName(name)
			if err != nil {
				return nil, fmt.Errorf("dynamic policy %q: %w", name, err)
			}
			jobs = append(jobs, repro.Job{Policy: pol, Workload: w, N: n, Warmup: warm})
		}
	}
	return jobs, nil
}

// gridJobs are short ladder jobs over gridSeeds replicas, so every job
// hash is unique.
func gridJobs(seed int64) []repro.Job {
	var jobs []repro.Job
	for r := 0; r < gridSeeds; r++ {
		jobs = append(jobs, ladderJobs(profiles(seed, r), gridN, gridWarmup)...)
	}
	return jobs
}

// jobsFor builds the measured job set of a workload. The in-process
// workloads come in replicas, re-seeded copies of the same study (see
// studyReplicas); the grid job set holds its replicas already and
// ignores replica.
func jobsFor(workload string, seed int64, replica int) ([]repro.Job, error) {
	switch workload {
	case "ladder":
		return ladderJobs(profiles(seed, replica), studyN, studyWarmup), nil
	case "dynamic":
		return dynamicJobs(profiles(seed, replica), studyN, studyWarmup)
	case "grid":
		return gridJobs(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want ladder, dynamic or grid)", workload)
}

// uopsOf is the simulated work of a job set: committed uops including
// warmup.
func uopsOf(jobs []repro.Job) float64 {
	var u float64
	for _, j := range jobs {
		u += float64(j.N + j.Warmup)
	}
	return u
}
