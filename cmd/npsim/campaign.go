package main

import (
	"bytes"
	"fmt"
	"slices"

	"sdmmon/internal/campaign"
)

// campaignSweepSeeds is how many seeds the detection-latency sweep runs
// per family (shared by -campaign and the -bench campaign_detection
// series); small enough to stay interactive, large enough for a stable
// p50.
const campaignSweepSeeds = 16

// runCampaign executes the adversarial campaign drill over the five
// attack families, reporting each family's mutation and detection
// metrics and its packets-to-detection distribution over
// campaignSweepSeeds seeds; `all` finishes with the fleet-wide collision
// evasion drill (crack → replay → rotate → replay).
func runCampaign(scenario string, seed int64) error {
	_, err := runFamilies("campaign", scenario, campaign.Families(), seed, func(a *campaign.Result) error {
		fmt.Printf("  detect@%d packets  mutants %d/%d detected  evasion depth %.1f\n",
			a.PacketsToDetect, a.MutantsDetected, len(a.Mutants), a.EvasionDepth)
		if a.Collision != nil {
			fmt.Printf("  collision search: %d probes, %d cycles, found=%v exhausted=%v\n",
				a.Collision.Attempts, a.Collision.Cycles, a.Collision.Found, a.Collision.Exhausted)
		}
		if a.SlowDrip != nil {
			fmt.Printf("  slowdrip: frontier duty %.4f (floor %.2f), %d packets slipped over %d epochs\n",
				a.SlowDrip.FrontierDuty, campaign.SlowDripDutyFloor, a.SlowDrip.SlippedPackets, a.SlowDrip.Epochs)
		}
		d, err := campaign.MeasureDetection(a.Family, campaignSweepSeeds, seed)
		if err != nil {
			return err
		}
		fmt.Printf("  detection latency over %d seeds: %d/%d detected  p50=%d p99=%d min=%d max=%d pkts  mean evasion %.1f\n",
			d.Runs, d.Detected, d.Runs, d.P50, d.P99, d.Min, d.Max, d.MeanEvasionDepth)
		return nil
	})
	if err == nil && scenario == "all" {
		err = runFleetEvasion(seed)
	}
	return err
}

// runFamilies is the one runner behind -campaign and -threat. Each
// requested family (scenario, or every one of families for "all") runs
// once directly and once from the wire-encoded bytes of its resolved spec
// — the encode → decode → re-run path an operator replaying a captured
// campaign would take — and the drill fails, non-zero exit, unless the two
// results are byte-identical under the canonical replay encoding and the
// result passes the family's own self-assertions. After the lines every
// family shares, report prints the mode's own and runs its seed sweep.
// The checked results are returned in order.
func runFamilies(mode, scenario string, families []string, seed int64, report func(*campaign.Result) error) ([]*campaign.Result, error) {
	if scenario != "all" {
		if !slices.Contains(families, scenario) {
			return nil, fmt.Errorf("npsim: unknown %s family %q (want %v or all)", mode, scenario, families)
		}
		families = []string{scenario}
	}
	var out []*campaign.Result
	for _, family := range families {
		fmt.Printf("%s campaign %q, seed %d:\n", mode, family, seed)
		a, n, err := replayChecked(family, seed)
		if err != nil {
			return nil, &scenarioError{Mode: mode, Scenario: family, Err: err}
		}
		fmt.Printf("  peak=%s final=%s incidents=%d replay=byte-identical (%d bytes)\n",
			a.Peak, a.Final, len(a.Incidents), n)
		fmt.Printf("  responses: isolated=%d tightened=%d failed_shards=%d lockdown=%v staged_zeroized=%v\n",
			a.IsolatedCores, a.AdmissionTightened, a.FailedShards, a.LockdownFired, a.StagedZeroized)
		st := a.Stats
		fmt.Printf("  conservation: arrived=%d = processed=%d + taildrops=%d + starved=%d + backlog=%d (marked=%d alarms=%d faults=%d)\n",
			st.Arrived, st.Processed, st.TailDrops, st.Starved, st.Backlog, st.Marked, st.Alarms, st.Faults)
		if err := report(a); err != nil {
			return nil, &scenarioError{Mode: mode, Scenario: family, Err: err}
		}
		fmt.Println()
		out = append(out, a)
	}
	return out, nil
}

// replayChecked runs one family, replays it through the wire codec, and
// self-checks it; it returns the result and its replay-byte length.
func replayChecked(family string, seed int64) (*campaign.Result, int, error) {
	a, err := campaign.RunCampaign(campaign.Config{Family: family, Seed: seed})
	if err != nil {
		return nil, 0, err
	}
	spec, err := campaign.DecodeSpec(a.Spec.Encode())
	if err != nil {
		return nil, 0, fmt.Errorf("wire round trip: %w", err)
	}
	b, err := campaign.RunSpec(spec)
	if err != nil {
		return nil, 0, err
	}
	ab, err := a.ReplayBytes()
	if err != nil {
		return nil, 0, err
	}
	bb, err := b.ReplayBytes()
	if err != nil {
		return nil, 0, err
	}
	if !bytes.Equal(ab, bb) {
		return nil, 0, fmt.Errorf("replay diverged: results not byte-identical across the wire round trip (%d vs %d bytes)",
			len(ab), len(bb))
	}
	return a, len(ab), a.Check()
}

// runFleetEvasion runs the fleet-wide collision evasion drill twice and
// self-asserts determinism plus the drill's own containment checks.
func runFleetEvasion(seed int64) error {
	fmt.Printf("fleet evasion drill, seed %d:\n", seed)
	cfg := campaign.FleetDrillConfig{Seed: seed}
	a, err := campaign.CollisionFleetDrill(cfg)
	if err != nil {
		return &scenarioError{Mode: "campaign", Scenario: "fleet-evasion", Err: err}
	}
	b, err := campaign.CollisionFleetDrill(cfg)
	if err != nil {
		return &scenarioError{Mode: "campaign", Scenario: "fleet-evasion", Err: err}
	}
	if *a != *b {
		return &scenarioError{Mode: "campaign", Scenario: "fleet-evasion",
			Err: fmt.Errorf("replay diverged: drill results differ across identical runs")}
	}
	if err := a.Check(); err != nil {
		return &scenarioError{Mode: "campaign", Scenario: "fleet-evasion", Err: err}
	}
	fmt.Printf("  cracked router 0 in %d probes (%d cycles, budget %d)\n",
		a.CrackAttempts, a.CrackCycles, a.ProbeBudget)
	fmt.Printf("  variant transfer: pre-rotation %d/%d routers, post-rotation %d/%d\n",
		a.PreTransfer, a.Routers, a.PostTransfer, a.Routers)
	fmt.Printf("  post-rotation re-crack cost: p50=%d p99=%d probes, %d searches exhausted\n",
		a.SearchP50, a.SearchP99, a.SearchExhausted)
	return nil
}
