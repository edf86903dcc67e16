package main

import (
	"fmt"
	"os"
	"slices"

	"sdmmon/internal/campaign"
	"sdmmon/internal/threat"
)

// threatSweepSeeds is how many seeds the escalation-latency sweep runs per
// family; small enough to keep the drill interactive, large enough for a
// stable p50.
const threatSweepSeeds = 16

// runThreat executes the graded threat-response drill over the campaign
// drill families: burst reaches CRITICAL and recovers, ramp walks the
// staircase and is ended by isolation, drip stays at or below LOW. Each
// family prints its level trajectory and a packets-to-escalation table
// over seeds 1..threatSweepSeeds; incidentsPath, when set, receives every
// captured incident record.
func runThreat(scenario string, seed int64, incidentsPath string) error {
	results, err := runFamilies("threat", scenario, campaign.DrillFamilies(), seed, func(a *campaign.Result) error {
		for _, tr := range a.Trajectory {
			arrow := "escalate"
			if tr.To < tr.From {
				arrow = "relax"
			}
			fmt.Printf("  tick %3d  %-8s %s -> %s  score %6.2f  shard %d core %2d",
				tr.Tick, arrow, tr.From, tr.To, tr.Score, tr.Shard, tr.Core)
			if len(tr.Actions) > 0 {
				fmt.Printf("  actions %v", tr.Actions)
			}
			fmt.Println()
		}
		return sweepEscalation(a.Family)
	})
	if err != nil || incidentsPath == "" {
		return err
	}

	var captured []threat.IncidentRecord
	for _, a := range results {
		captured = append(captured, a.Incidents...)
	}
	f, err := os.Create(incidentsPath)
	if err != nil {
		return err
	}
	err = threat.WriteIncidents(f, captured)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing incidents to %s: %w", incidentsPath, err)
	}
	fmt.Printf("wrote %d incident records to %s\n", len(captured), incidentsPath)
	return nil
}

// sweepEscalation runs the family across seeds and reports the
// packets-to-escalation distribution per level: how much traffic the
// attacker got through before the classifier reached each grade.
func sweepEscalation(family string) error {
	reached := map[threat.Level][]int64{}
	for seed := int64(1); seed <= threatSweepSeeds; seed++ {
		res, err := campaign.RunCampaign(campaign.Config{Family: family, Seed: seed})
		if err != nil {
			return err
		}
		if err := res.Check(); err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		for l := threat.Low; int(l) < threat.NumLevels; l++ {
			if p := res.PacketsToLevel[l]; p >= 0 {
				reached[l] = append(reached[l], p)
			}
		}
	}
	fmt.Printf("  packets-to-escalation over %d seeds:\n", threatSweepSeeds)
	for l := threat.Low; int(l) < threat.NumLevels; l++ {
		samplesAt := reached[l]
		if len(samplesAt) == 0 {
			fmt.Printf("    %-8s never reached\n", l)
			continue
		}
		p50, p99 := percentiles(samplesAt)
		fmt.Printf("    %-8s reached %2d/%d  p50=%d p99=%d\n",
			l, len(samplesAt), threatSweepSeeds, p50, p99)
	}
	return nil
}

// percentiles returns the nearest-rank p50 and p99 of xs.
func percentiles(xs []int64) (p50, p99 int64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	return campaign.NearestRank(s, 0.50), campaign.NearestRank(s, 0.99)
}
