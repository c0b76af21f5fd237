package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	"repro"
)

//go:embed paper_refs.json
var paperRefsJSON []byte

// paperRef is one paper value paper_gap_pp is measured against: the
// per-app mean of Metric ("speedup" over the baseline machine, or
// "copies", inter-cluster copies per committed uop) under Policy, in
// percent.
type paperRef struct {
	Name   string  `json:"name"`
	Paper  float64 `json:"paper"`
	Metric string  `json:"metric"`
	Policy string  `json:"policy"`
	Source string  `json:"source"`
	Status string  `json:"status"`
}

func loadPaperRefs() ([]paperRef, error) {
	var doc struct {
		Refs []paperRef `json:"refs"`
	}
	if err := json.Unmarshal(paperRefsJSON, &doc); err != nil {
		return nil, fmt.Errorf("paper_refs.json: %w", err)
	}
	return doc.Refs, nil
}

// paperGap is the fidelity of one ladder result set: each reference's
// measured value and |measured − paper|, and the mean of those gaps.
type paperGap struct {
	Measured map[string]float64
	Gap      map[string]float64
	MeanPP   float64
}

// computePaperGap reduces a ladder job set and its results (same order)
// to the paper gap. Speedups are taken per app against that app's
// baseline job and averaged over apps, as the figures do.
func computePaperGap(refs []paperRef, jobs []repro.Job, results []repro.Result) (paperGap, error) {
	// An app is a profile: its name and seed, so replicas stay apart.
	type key struct{ app, policy string }
	byKey := map[key]repro.Result{}
	var apps []string
	for i, j := range jobs {
		k := key{fmt.Sprintf("%s#%d", j.Workload.Name, j.Workload.Params.Seed), j.EffectivePolicy().Name()}
		if k.policy == "baseline" {
			apps = append(apps, k.app)
		}
		byKey[k] = results[i]
	}
	g := paperGap{Measured: map[string]float64{}, Gap: map[string]float64{}}
	if len(refs) == 0 {
		return g, fmt.Errorf("paper gap: no reference values")
	}
	for _, ref := range refs {
		var sum float64
		for _, app := range apps {
			r, ok := byKey[key{app, ref.Policy}]
			if !ok {
				return g, fmt.Errorf("paper gap: no %s result for %s", ref.Policy, app)
			}
			switch ref.Metric {
			case "speedup":
				sum += 100 * repro.SpeedupOf(r, byKey[key{app, "baseline"}])
			case "copies":
				sum += 100 * r.Metrics.CopyFrac()
			default:
				return g, fmt.Errorf("paper gap: unknown metric %q in %s", ref.Metric, ref.Name)
			}
		}
		if len(apps) == 0 {
			return g, fmt.Errorf("paper gap: no baseline results")
		}
		m := sum / float64(len(apps))
		g.Measured[ref.Name] = m
		g.Gap[ref.Name] = math.Abs(m - ref.Paper)
		g.MeanPP += g.Gap[ref.Name] / float64(len(refs))
	}
	return g, nil
}
