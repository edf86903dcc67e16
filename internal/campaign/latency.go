package campaign

import (
	"fmt"
	"sort"
)

// Detection-latency distributions: run a family across a seed sweep and
// summarize how many packets the plane admitted before the classifier
// reached the family's detection level — the campaign engine's headline
// metric (§E15).

// DetectionDistribution summarizes packets-to-detection over a seed sweep.
type DetectionDistribution struct {
	Family string `json:"family"`
	Runs   int    `json:"runs"`
	// Detected of Runs campaigns reached the family's detection level.
	Detected int `json:"detected"`
	// P50/P99 are nearest-rank quantiles of packets-to-detection over the
	// detected campaigns; -1 when none detected.
	P50 int64 `json:"p50"`
	P99 int64 `json:"p99"`
	Min int64 `json:"min"`
	Max int64 `json:"max"`
	// MeanEvasionDepth averages the family's evasion-depth metric across
	// all runs (matched prefix, frontier duty, or slipped packets).
	MeanEvasionDepth float64 `json:"mean_evasion_depth"`
}

// MeasureDetection sweeps seeds baseSeed..baseSeed+runs-1 through one
// family and aggregates the detection-latency distribution. Every run is
// also self-checked, so a regression in any family fails the sweep.
func MeasureDetection(family string, runs int, baseSeed int64) (DetectionDistribution, error) {
	d := DetectionDistribution{Family: family, Runs: runs, P50: -1, P99: -1, Min: -1, Max: -1}
	if runs <= 0 {
		return d, fmt.Errorf("campaign: need >= 1 run, got %d", runs)
	}
	var latencies []int64
	var depth float64
	for i := 0; i < runs; i++ {
		r, err := RunCampaign(Config{Family: family, Seed: baseSeed + int64(i)})
		if err != nil {
			return d, err
		}
		if err := r.Check(); err != nil {
			return d, fmt.Errorf("seed %d: %w", baseSeed+int64(i), err)
		}
		if r.PacketsToDetect >= 0 {
			latencies = append(latencies, r.PacketsToDetect)
		}
		depth += r.EvasionDepth
	}
	d.Detected = len(latencies)
	d.MeanEvasionDepth = depth / float64(runs)
	if len(latencies) == 0 {
		return d, nil
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	d.Min = latencies[0]
	d.Max = latencies[len(latencies)-1]
	d.P50 = NearestRank(latencies, 0.50)
	d.P99 = NearestRank(latencies, 0.99)
	return d, nil
}

// NearestRank returns the nearest-rank q-quantile of an ascending slice:
// the smallest value with at least q of the samples at or below it (-1 for
// an empty slice).
func NearestRank(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return -1
	}
	rank := int(q*float64(len(sorted)) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
