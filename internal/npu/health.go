package npu

// HealthGate is the post-commit health check the staged rollouts share
// (network.UpgradeFleet across routers, tenant.Manager.Rollout across one
// tenant's domain): after a commit, a unit's event rate is compared
// against its own pre-upgrade baseline.
type HealthGate struct {
	// HealthPackets is how many packets one health sample (baseline and
	// post-commit) runs. Default 128.
	HealthPackets int
	// RateBudget is the tolerated increase of the per-packet event rate
	// (alarms+faults over processed) above the baseline before the gate
	// declares a regression. Default 0.02.
	RateBudget float64
}

// WithDefaults fills zero fields.
func (g HealthGate) WithDefaults() HealthGate {
	if g.HealthPackets <= 0 {
		g.HealthPackets = 128
	}
	if g.RateBudget <= 0 {
		g.RateBudget = 0.02
	}
	return g
}

// HealthSample is one traffic measurement on one rollout unit.
type HealthSample struct {
	Processed uint64
	// Events counts alarms plus architectural faults (watchdog trips are a
	// subset of faults).
	Events      uint64
	Quarantines uint64
}

// Rate is events per processed packet (0 for an empty sample).
func (h HealthSample) Rate() float64 {
	if h.Processed == 0 {
		return 0
	}
	return float64(h.Events) / float64(h.Processed)
}

// Regressed applies the gate: the post-commit event rate exceeds baseline
// plus budget, or the supervisor quarantined a core on the new version.
func (g HealthGate) Regressed(base, after HealthSample) bool {
	if after.Quarantines > 0 {
		return true
	}
	return after.Rate() > base.Rate()+g.RateBudget
}
