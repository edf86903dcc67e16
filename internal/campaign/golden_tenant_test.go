package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"sdmmon/internal/apps"
	"sdmmon/internal/npu"
	"sdmmon/internal/shard"
	"sdmmon/internal/tenant"
)

// Golden values for the multi-tenant stack across code versions, in the
// style of golden_test.go. They digest field values one by one rather than
// a %+v rendering of the stats structs, so a change to a struct's layout
// (an embedded counts block, a field's integer type) leaves them intact
// while any change to a number fails here.

// tenantDrillGolden[seed-1] digests the hostile tenant-isolation run at
// seeds 1-4: the bystander's canonical telemetry bytes, its per-tenant
// plane counters and its per-NP domain stats. The four are equal: the
// seed moves only the victim's hash parameters and attack outcome, and
// nothing of that may reach the bystander.
var tenantDrillGolden = [4]string{
	"5425f2868983687863ce3111fde9247677dbf6c892782bcdfc8f811c9787e377",
	"5425f2868983687863ce3111fde9247677dbf6c892782bcdfc8f811c9787e377",
	"5425f2868983687863ce3111fde9247677dbf6c892782bcdfc8f811c9787e377",
	"5425f2868983687863ce3111fde9247677dbf6c892782bcdfc8f811c9787e377",
}

// rolloutGolden digests the Reports of a clean tenant rollout followed by
// a faulty one that the canary gate rolls back.
const rolloutGolden = "2aa92914bd3541c2fc1f6f26b01fb33d33ce56c7115df32b7ed0c5eff0b5641c"

func writeTenantStats(h hash.Hash, s shard.TenantStats) {
	fmt.Fprintln(h, s.Tenant, s.Name, s.Arrived, s.TailDrops, s.Marked, s.Starved,
		s.Processed, s.Forwarded, s.AppDrops, s.Rejected, s.Alarms, s.Faults,
		s.ECNMarked, s.Cycles, s.Backlog, s.LanesDead)
}

func writeNPStats(h hash.Hash, s npu.Stats) {
	fmt.Fprintln(h, s.Processed, s.Forwarded, s.Dropped, s.Alarms, s.Faults,
		s.WatchdogTrips, s.Quarantines, s.Cycles)
}

func writeHealth(h hash.Hash, s npu.HealthSample) {
	fmt.Fprintln(h, s.Processed, s.Events, s.Quarantines)
}

func writeReport(h hash.Hash, r *tenant.Report) {
	fmt.Fprintf(h, "%s|%s|%d|%t|%t|%s\n", r.Tenant, r.Target, r.Waves, r.Completed, r.RolledBack, r.Reason)
	for _, o := range r.Outcomes {
		fmt.Fprintln(h, o.NP, o.Committed, o.RolledBack)
		writeHealth(h, o.Baseline)
		writeHealth(h, o.After)
		fmt.Fprintln(h, o.Err)
	}
}

func TestGoldenTenantDrill(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		run, err := runTenantEnv(seed, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		h := sha256.New()
		h.Write(run.BystanderBytes)
		writeTenantStats(h, run.Bystander)
		for _, ds := range run.BystanderDomains {
			writeNPStats(h, ds)
		}
		if got, want := hex.EncodeToString(h.Sum(nil)), tenantDrillGolden[seed-1]; got != want {
			t.Errorf("seed %d: digest %s, want %s", seed, got, want)
		}
	}
}

func TestGoldenTenantRollout(t *testing.T) {
	nps := make([]*npu.NP, 2)
	for i := range nps {
		np, err := npu.New(npu.Config{Cores: 4, MonitorsEnabled: true})
		if err != nil {
			t.Fatal(err)
		}
		nps[i] = np
	}
	mgr, err := tenant.New(tenant.Config{
		NPs: nps,
		Specs: []tenant.Spec{
			{Name: "a", Cores: []int{0, 1}},
			{Name: "b", Cores: []int{2, 3}},
		},
		Classify:      tdClassify,
		QueueCapacity: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	if err := mgr.Install("a", tenant.AppBundle{App: apps.UDPEcho(), Param: 0xA1, Version: "1.0", Sequence: 1}); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Install("b", tenant.AppBundle{App: apps.IPv4CM(), Param: 0xB1, Version: "3.0", Sequence: 1}); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	clean, err := mgr.Rollout("a", tenant.AppBundle{App: apps.UDPEcho(), Param: 0xA2, Version: "1.1", Sequence: 2}, npu.HealthGate{}, 42)
	if err != nil {
		t.Fatalf("clean rollout: %v", err)
	}
	writeReport(h, clean)
	faulty, err := mgr.Rollout("a", tenant.AppBundle{App: apps.FaultyEcho(), Param: 0xA3, Version: "1.2", Sequence: 3}, npu.HealthGate{HealthPackets: 32}, 99)
	if err == nil {
		t.Fatal("faulty rollout completed")
	}
	writeReport(h, faulty)
	if got := hex.EncodeToString(h.Sum(nil)); got != rolloutGolden {
		t.Errorf("rollout digest %s, want %s", got, rolloutGolden)
	}
}
