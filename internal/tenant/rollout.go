package tenant

// Tenant-scoped canary rollouts: the fleet-rollout discipline of
// internal/network (canary first, health gate against the unit's own
// baseline, automatic rollback on regression) applied to one tenant's
// protection domain across the plane's NPs. Every step addresses cores
// through the tenant's domain name — StageInstallDomainAll,
// CommitDomainAll, RollbackDomainAll — so the rollout is structurally
// unable to touch another tenant's slots: the npu layer resolves the name
// to the domain's own cores before any state moves, and the isolation
// test byte-compares a bystander's telemetry across a hostile rollout to
// prove it.

import (
	"errors"
	"fmt"

	"sdmmon/internal/npu"
	"sdmmon/internal/packet"
	"sdmmon/internal/seccrypto"
)

// ErrHealthRegression: the canary (or a later wave) regressed against its
// own pre-upgrade baseline; the tenant's domain was rolled back everywhere
// it had committed.
var ErrHealthRegression = errors.New("tenant: health regression; domain rolled back")

// NPOutcome records one NP's part in a tenant rollout.
type NPOutcome struct {
	NP         int
	Committed  bool
	RolledBack bool
	Baseline   npu.HealthSample
	After      npu.HealthSample
	Err        error
}

// Report is the outcome of one tenant rollout.
type Report struct {
	Tenant string
	Target string
	// Waves counts health-gated commit waves (wave 0 is the canary: the
	// tenant's slots on NP 0).
	Waves      int
	Completed  bool
	RolledBack bool
	Reason     string
	Outcomes   []NPOutcome
}

// sampleDomain runs n deterministic packets through one NP's tenant domain
// and measures the domain's own outcome. The batch-local delta (the drain
// reports exactly this batch's counters) plus the domain quarantine delta
// make the sample immune to concurrent traffic on other tenants' cores.
func sampleDomain(np *npu.NP, domain string, gen *packet.Generator, n int) (npu.HealthSample, error) {
	pkts := make([][]byte, n)
	for i := range pkts {
		pkts[i] = gen.Next()
	}
	before, err := np.StatsDomain(domain)
	if err != nil {
		return npu.HealthSample{}, err
	}
	out, derr := np.DrainBatchDomainRelease(domain, pkts, 0, nil)
	after, err := np.StatsDomain(domain)
	if err != nil {
		return npu.HealthSample{}, err
	}
	h := npu.HealthSample{
		Processed:   out.Processed,
		Events:      out.Alarms + out.Faults,
		Quarantines: after.Quarantines - before.Quarantines,
	}
	return h, derr
}

// Rollout performs a canaried, health-gated upgrade of one tenant's domain
// across every NP. The canary is the tenant's own slots on NP 0: stage,
// commit at a packet boundary, then compare the domain's post-commit event
// rate against its own pre-upgrade baseline. A regression rolls the
// tenant's domain back everywhere it committed (and discards anything
// staged) and returns ErrHealthRegression; no other tenant's slots are
// touched at any point, in success or failure. On success the tenant's
// anti-downgrade ledger advances to the bundle's sequence.
func (m *Manager) Rollout(tenant string, b AppBundle, gate npu.HealthGate, seed int64) (*Report, error) {
	ts, err := m.state(tenant)
	if err != nil {
		return nil, err
	}
	gate = gate.WithDefaults()
	rep := &Report{
		Tenant:   tenant,
		Target:   b.target(),
		Outcomes: make([]NPOutcome, len(m.nps)),
	}
	for i := range rep.Outcomes {
		rep.Outcomes[i].NP = i
	}
	finish := func(reason string, err error) (*Report, error) {
		rep.Reason = reason
		rep.Completed = err == nil && !rep.RolledBack
		if rep.Completed {
			ts.mRollouts.Inc()
		}
		return rep, err
	}

	// Anti-downgrade gate before anything is staged: the high-water mark
	// only advances after the rollout completes, so a rolled-back sequence
	// can be retried.
	if b.Sequence > 0 {
		if hw := ts.ledger.HighWater(b.App.Name); b.Sequence <= hw {
			ts.mRefused.Inc()
			return finish(fmt.Sprintf("sequence %d at or below high-water %d", b.Sequence, hw),
				fmt.Errorf("%w: %s sequence %d, tenant high-water %d",
					seccrypto.ErrDowngrade, b.App.Name, b.Sequence, hw))
		}
	}
	binary, graph, err := build(b)
	if err != nil {
		return finish("bundle build failed", err)
	}

	// abortAll discards anything staged (idempotent per NP) and rolls the
	// committed NPs back, newest first.
	rollbackAll := func(committed []int) {
		for _, np := range m.nps {
			_ = np.AbortStagedDomain(tenant)
		}
		for i := len(committed) - 1; i >= 0; i-- {
			j := committed[i]
			if _, err := m.nps[j].RollbackDomainAll(tenant); err != nil {
				rep.Outcomes[j].Err = fmt.Errorf("rollback on NP %d: %w", j, err)
				continue
			}
			rep.Outcomes[j].Committed = false
			rep.Outcomes[j].RolledBack = true
		}
		ts.mRollbacks.Inc()
		rep.RolledBack = true
	}

	var committed []int
	for i, np := range m.nps {
		rep.Waves = i + 1
		out := &rep.Outcomes[i]

		gen := packet.NewGenerator(seed ^ int64(i)<<8)
		base, err := sampleDomain(np, tenant, gen, gate.HealthPackets)
		if err != nil {
			return finish(fmt.Sprintf("baseline on NP %d failed", i),
				fmt.Errorf("tenant: baseline on NP %d: %w", i, err))
		}
		out.Baseline = base

		if err := np.StageInstallDomainAll(tenant, b.App.Name, binary, graph, b.Param); err != nil {
			_ = np.AbortStagedDomain(tenant)
			return finish(fmt.Sprintf("stage on NP %d refused", i),
				fmt.Errorf("tenant: stage on NP %d: %w", i, err))
		}
		if _, err := np.CommitDomainAll(tenant); err != nil {
			rollbackAll(committed)
			return finish(fmt.Sprintf("commit on NP %d failed", i),
				fmt.Errorf("tenant: commit on NP %d: %w", i, err))
		}
		out.Committed = true
		committed = append(committed, i)

		gen = packet.NewGenerator(seed ^ int64(i)<<8 ^ 0x5a5a)
		after, err := sampleDomain(np, tenant, gen, gate.HealthPackets)
		out.After = after
		regressed := gate.Regressed(base, after)
		if err != nil {
			// The new version took the whole domain down — the strongest
			// possible regression.
			regressed = true
		}
		if regressed {
			out.Err = fmt.Errorf("%w: %s on NP %d rate %.4f vs baseline %.4f (+%d quarantines)",
				ErrHealthRegression, tenant, i, after.Rate(), base.Rate(), after.Quarantines)
			rollbackAll(committed)
			return finish(fmt.Sprintf("health regression on NP %d; tenant domain rolled back", i), out.Err)
		}
	}

	if b.Sequence > 0 {
		if err := ts.ledger.Accept(b.App.Name, b.Sequence); err != nil {
			// Unreachable given the entry check, but never let the ledger
			// silently diverge from what is running.
			return finish("ledger refused completed rollout", err)
		}
	}
	return finish("", nil)
}
