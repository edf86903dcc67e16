package campaign

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"sdmmon/internal/threat"
)

// The headline guarantee: a campaign is a pure function of its
// configuration. Running the same seeded campaign twice must reproduce the
// threat-level trajectory exactly and serialize byte-identical incident
// records.
func TestThreatDrillReplayDeterministic(t *testing.T) {
	for _, family := range DrillFamilies() {
		t.Run(family, func(t *testing.T) {
			cfg := Config{Family: family, Seed: 7}
			a, err := RunCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Check(); err != nil {
				t.Errorf("first run fails its own family assertions: %v", err)
			}
			if !reflect.DeepEqual(a.Trajectory, b.Trajectory) {
				t.Errorf("trajectories diverged across replays:\n  run A: %+v\n  run B: %+v",
					a.Trajectory, b.Trajectory)
			}
			if !bytes.Equal(a.IncidentBytes, b.IncidentBytes) {
				t.Errorf("incident records not byte-identical across replays: %d vs %d bytes",
					len(a.IncidentBytes), len(b.IncidentBytes))
			}
			if a.Stats != b.Stats {
				t.Errorf("packet accounting diverged: %+v vs %+v", a.Stats, b.Stats)
			}
			// Each serialized incident must survive a strict decode and
			// re-encode to the same bytes (the fixed point the fuzzer widens).
			for i := range a.Incidents {
				raw, err := a.Incidents[i].Marshal()
				if err != nil {
					t.Fatalf("incident %d: %v", i, err)
				}
				back, err := threat.UnmarshalIncident(raw)
				if err != nil {
					t.Fatalf("incident %d does not survive a strict decode: %v", i, err)
				}
				raw2, err := back.Marshal()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(raw, raw2) {
					t.Errorf("incident %d is not a marshal fixed point", i)
				}
			}
		})
	}
}

// Every campaign family must hold its qualitative trajectory across seeds,
// not just at one lucky value.
func TestThreatDrillSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed campaign sweep")
	}
	for _, family := range DrillFamilies() {
		for seed := int64(1); seed <= 5; seed++ {
			res, err := RunCampaign(Config{Family: family, Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", family, seed, err)
			}
			if err := res.Check(); err != nil {
				t.Errorf("%s seed %d: %v", family, seed, err)
			}
		}
	}
}

// The evasion regression: an attack tuned just under the EWMA baseline's
// sensitivity must never escalate past LOW, never capture an incident, and
// never trigger a response.
func TestThreatDripStaysLow(t *testing.T) {
	res, err := RunCampaign(Config{Family: FamilyDrip, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Peak > threat.Low {
		t.Errorf("slow drip escalated to %s, must stay <= %s", res.Peak, threat.Low)
	}
	if len(res.Incidents) != 0 {
		t.Errorf("slow drip captured %d incidents, want 0", len(res.Incidents))
	}
	if res.IsolatedCores != 0 || res.FailedShards != 0 || res.LockdownFired || res.StagedZeroized {
		t.Errorf("slow drip triggered responses: %+v", res)
	}
	if !res.Stats.Conserved() {
		t.Errorf("packet conservation violated: %+v", res.Stats)
	}
	if res.Stats.Alarms == 0 {
		t.Error("slow drip never alarmed at all — the drip fixture is not attacking")
	}
}

// Campaign model conservation must hold mid-run at every tick, not just at
// the end — responses (rehash sheds, lockdown starvation, tightening) fire
// mid-traffic and each must keep the books balanced. Exercised across the
// families so every response path is covered.
func TestThreatDrillConservationPerFamily(t *testing.T) {
	for _, family := range DrillFamilies() {
		res, err := RunCampaign(Config{Family: family, Seed: 11})
		if err != nil {
			t.Fatalf("%s: %v", family, err)
		}
		if !res.Stats.Conserved() {
			t.Errorf("%s: conservation violated: %+v", family, res.Stats)
		}
	}
}

// A level trajectory rendered per family, pinned for documentation drift:
// this is the table EXPERIMENTS.md cites.
func TestThreatDrillTrajectoryShape(t *testing.T) {
	res, err := RunCampaign(Config{Family: FamilyRamp, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var ups []threat.Level
	for _, tr := range res.Trajectory {
		if tr.To > tr.From {
			ups = append(ups, tr.To)
		}
	}
	want := []threat.Level{threat.Low, threat.Medium, threat.High}
	if !reflect.DeepEqual(ups, want) {
		t.Errorf("ramp escalation sequence = %v, want %v (staircase duty must walk the classifier up)",
			ups, want)
	}
	// The ramp's incident must carry forensics: readings, pre-trigger
	// events, and the actions that fired.
	if len(res.Incidents) == 0 {
		t.Fatal("ramp captured no incidents")
	}
	inc := res.Incidents[0]
	if inc.To != threat.High || len(inc.Readings) == 0 || len(inc.Actions) == 0 {
		t.Errorf("incident missing forensics: %+v", inc)
	}
	if len(inc.Events) == 0 {
		t.Error("incident captured no pre-trigger events")
	}
	if fmt.Sprintf("%v", inc.StatsDelta) == "map[]" {
		t.Error("incident carries no stats delta")
	}
}
