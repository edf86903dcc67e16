package shard

import (
	"testing"
	"time"

	"sdmmon/internal/network"
	"sdmmon/internal/npu"
	"sdmmon/internal/obs"
)

// TestPlaneControlIdempotency pins the contract the threat engine's
// response dispatch relies on: FailShard, Lockdown, and ClearLockdown may
// be replayed (a graded response re-fires on every tick above its
// threshold) without double-counting failovers or shed packets, and the
// per-card tallies, plane-wide Stats, and the registry's shard_* counters
// must agree throughout. Since the ring rewrite the backlog shed after a
// failover happens asynchronously on the card's worker, so the
// consistency check waits for the views to converge instead of demanding
// instantaneous agreement — but the failover count itself must move
// synchronously (the threat engine reads it right after responding).
func TestPlaneControlIdempotency(t *testing.T) {
	col := obs.New(0)
	nps := make([]*npu.NP, 3)
	for i := range nps {
		nps[i] = planeNP(t, 1, int64(i+40))
	}
	plane, err := NewPlane(Config{NPs: nps, QueueCapacity: 64, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()
	starvedTotal := col.Registry().Counter("shard_starved_drops_total")
	arrivedTotal := col.Registry().Counter("shard_arrived_total")

	gen, err := network.NewFlowGenerator(32, 9)
	if err != nil {
		t.Fatal(err)
	}
	submitted := 0
	for i := 0; i < 200; i++ {
		plane.Submit(gen.Next())
		submitted++
	}

	// consistent asserts the views of shed and arrived packets converge:
	// conservation at every poll, and registry == Stats once the async
	// shed (if any) quiesces.
	consistent := func(stage string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := plane.Stats()
			if !st.Conserved() {
				t.Fatalf("%s: not conserved: %+v", stage, st)
			}
			// Arrival agreement (the re-pick accounting contract): every
			// Submit counts on the plane-wide registry counter and on
			// exactly one card (or the starved-submit tally) — a retried
			// packet must never be double-counted across cards.
			if got := arrivedTotal.Value(); got != st.Arrived || st.Arrived != uint64(submitted) {
				t.Fatalf("%s: arrivals disagree: registry %d, stats %d, submitted %d",
					stage, got, st.Arrived, submitted)
			}
			if got := starvedTotal.Value(); got == st.Starved {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: registry starved %d never converged to stats starved %d",
					stage, starvedTotal.Value(), st.Starved)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	consistent("baseline")

	steps := []struct {
		name  string
		op    func() error
		check func(stage string)
	}{
		{
			name: "FailShard",
			op:   func() error { return plane.FailShard(1) },
			check: func(stage string) {
				st := plane.Stats()
				if st.Failovers != 1 {
					t.Errorf("%s: failovers = %d, want exactly 1", stage, st.Failovers)
				}
				if !st.Shards[1].Failed {
					t.Errorf("%s: shard 1 not marked failed", stage)
				}
			},
		},
		{
			name: "Lockdown",
			op:   func() error { plane.Lockdown(); return nil },
			check: func(stage string) {
				if !plane.LockedDown() {
					t.Errorf("%s: plane not locked down", stage)
				}
				got := plane.Submit(gen.Next())
				submitted++
				if got != AdmitStarved {
					t.Errorf("%s: admission under lockdown = %v, want starved", stage, got)
				}
			},
		},
		{
			name: "ClearLockdown",
			op:   func() error { plane.ClearLockdown(); return nil },
			check: func(stage string) {
				if plane.LockedDown() {
					t.Errorf("%s: plane still locked down", stage)
				}
				got := plane.Submit(gen.Next())
				submitted++
				if got == AdmitStarved {
					t.Errorf("%s: healthy shards remain but admission starved", stage)
				}
			},
		},
	}
	for _, step := range steps {
		for _, stage := range []string{step.name + "/first", step.name + "/replay"} {
			if err := step.op(); err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			step.check(stage)
			consistent(stage)
		}
	}

	for _, bad := range []int{-1, 3} {
		if err := plane.FailShard(bad); err == nil {
			t.Errorf("FailShard(%d) accepted an out-of-range shard", bad)
		}
	}

	// The worker dead-path replay: the worker detects a wedged NP and
	// accounts a 5-packet unprocessed batch tail on a card a concurrent
	// FailShard already failed (the worker holds no lock during
	// the drain, so this race is real). The tail reaches both the card
	// tally and the plane-wide counter from the worker's own accounting,
	// and the worker's failCard replay must lose the CAS — no second
	// failover, no divergence between the three views.
	lc := plane.cards[1]
	lane := lc.lanes[0]
	before := starvedTotal.Value()
	lane.arrived.Add(5) // the tail's packets were admitted before the wedge
	submitted += 5      // ...and counted on the registry at Submit time
	arrivedTotal.Add(5)
	lane.starved.Add(5)
	plane.cStarved.Add(5)
	plane.tcStarved[0].Add(5)
	plane.failCard(lc)
	if got := starvedTotal.Value(); got != before+5 {
		t.Errorf("dead-path replay: registry starved %d, want %d", got, before+5)
	}
	if got := plane.Stats().Failovers; got != 1 {
		t.Errorf("dead-path replay re-emitted failover: %d events", got)
	}
	consistent("dead-path replay")
}
