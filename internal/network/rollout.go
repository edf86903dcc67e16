package network

import (
	"errors"
	"fmt"

	"sdmmon/internal/apps"
	"sdmmon/internal/core"
	"sdmmon/internal/npu"
	"sdmmon/internal/obs"
	"sdmmon/internal/packet"
	"sdmmon/internal/timing"
)

// Staged fleet rollout (DESIGN.md §10): upgrading a fleet of routers that are
// forwarding live traffic must not take the data plane down — neither by the
// upgrade mechanics (solved by the NP's stage/commit path, which cuts over at
// a packet boundary) nor by the new version itself being bad (solved here:
// canaries commit first, a health gate compares their alarm/fault rate
// against their own pre-upgrade baseline, and a regression rolls the whole
// fleet back to the retained previous version). Delivery failures are not
// regressions: a router the lossy management network never reached is
// reported Failed and the rollout is resumable, while the routers that did
// upgrade stay upgraded.

// Rollout-level errors.
var (
	// ErrCanaryDelivery: a canary could not be reached/verified, so nothing
	// was committed anywhere.
	ErrCanaryDelivery = errors.New("network: canary delivery failed")
	// ErrHealthRegression: an upgraded router regressed against its
	// baseline; the fleet was rolled back.
	ErrHealthRegression = errors.New("network: health regression after upgrade")
)

// RolloutConfig shapes a staged fleet upgrade.
type RolloutConfig struct {
	// Canaries is the size of the first wave (default 1). The canary wave
	// is special: a delivery failure there aborts the rollout before
	// anything commits.
	Canaries int
	// WaveSize bounds the later waves (default: half the fleet, min 1).
	WaveSize int
	Gate     npu.HealthGate
	Policy   RetryPolicy
	// Link carries the packages; required.
	Link *LossyLink
	// Seed drives retry jitter and the health-sample traffic.
	Seed int64
}

// withDefaults fills zero fields.
func (c RolloutConfig) withDefaults(fleet int) RolloutConfig {
	if c.Canaries <= 0 {
		c.Canaries = 1
	}
	if c.WaveSize <= 0 {
		c.WaveSize = fleet / 2
		if c.WaveSize < 1 {
			c.WaveSize = 1
		}
	}
	c.Gate = c.Gate.WithDefaults()
	if c.Policy.MaxAttempts < 1 {
		c.Policy = DefaultRetryPolicy()
	}
	return c
}

// UpgradePhase is where one router ended up.
type UpgradePhase int

const (
	// PhasePending: not yet attempted (or aborted before commit; retried on
	// resume).
	PhasePending UpgradePhase = iota
	// PhaseStaged: new version staged but not committed (transient).
	PhaseStaged
	// PhaseCommitted: running the new version.
	PhaseCommitted
	// PhaseRolledBack: was committed, then restored to the previous version
	// by the fleet-wide rollback.
	PhaseRolledBack
	// PhaseFailed: delivery never converged (lossy link, dead router);
	// retried on resume.
	PhaseFailed
)

func (p UpgradePhase) String() string {
	switch p {
	case PhasePending:
		return "pending"
	case PhaseStaged:
		return "staged"
	case PhaseCommitted:
		return "committed"
	case PhaseRolledBack:
		return "rolled-back"
	case PhaseFailed:
		return "failed"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// RouterOutcome is one router's rollout record.
type RouterOutcome struct {
	DeviceID string
	Phase    UpgradePhase
	// Wave is the wave index the router was upgraded in (0 = canary wave,
	// -1 = never attempted).
	Wave     int
	Delivery *DeliveryReport  // nil when never attempted
	Baseline npu.HealthSample // pre-upgrade traffic sample
	After    npu.HealthSample // post-commit traffic sample (zero if not reached)
	Err      error
}

// RolloutReport is the full outcome of UpgradeFleet. It is resumable: pass it
// back as prior to skip the routers that already committed.
type RolloutReport struct {
	// Target is the manifest-derived label of the new version
	// ("app@version"), filled from the first successful delivery.
	Target   string
	Outcomes []RouterOutcome
	// Waves is how many waves ran (including the canary wave).
	Waves int
	// Completed: every router is on the new version.
	Completed bool
	// RolledBack: the health gate tripped and the fleet was restored.
	RolledBack bool
	// Reason explains a non-completed rollout in one line.
	Reason string
	Cost   timing.RolloutCost

	// Fleet-wide traffic accounting for every health-sample packet run
	// during the rollout — the zero-downtime evidence.
	Processed, Forwarded, Dropped, Alarms, Faults uint64
	// Conserved: every sampled packet was forwarded or dropped, on every
	// router — npu.Stats.Conserved held fleet-wide.
	Conserved bool
}

// Outcome returns the record for one router (nil if unknown).
func (r *RolloutReport) Outcome(deviceID string) *RouterOutcome {
	for i := range r.Outcomes {
		if r.Outcomes[i].DeviceID == deviceID {
			return &r.Outcomes[i]
		}
	}
	return nil
}

// committed lists indices of routers currently on the new version.
func (r *RolloutReport) committed() []int {
	var out []int
	for i := range r.Outcomes {
		if r.Outcomes[i].Phase == PhaseCommitted {
			out = append(out, i)
		}
	}
	return out
}

// sampleHealth runs n packets of deterministic traffic through a device and
// returns the sample plus the raw stat deltas for fleet accounting.
func sampleHealth(dev *core.Device, gen *packet.Generator, n int) (npu.HealthSample, [3]uint64, error) {
	pkts := make([][]byte, n)
	for i := range pkts {
		pkts[i] = gen.Next()
	}
	before := dev.Stats()
	_, err := dev.NP().ProcessBatch(pkts, 0)
	after := dev.Stats()
	h := npu.HealthSample{
		Processed:   after.Processed - before.Processed,
		Events:      (after.Alarms - before.Alarms) + (after.Faults - before.Faults),
		Quarantines: after.Quarantines - before.Quarantines,
	}
	deltas := [3]uint64{
		after.Forwarded - before.Forwarded,
		after.Dropped - before.Dropped,
		after.Alarms - before.Alarms,
	}
	return h, deltas, err
}

// UpgradeFleet performs a staged, canaried, health-gated upgrade of the fleet
// to app. Every router follows stage → commit → health check; the canary wave
// commits first and gates the rest. On a health regression every committed
// router (this run and, via prior, earlier runs) is rolled back to the
// retained previous version. On delivery failure to a non-canary router the
// rollout continues and the report is resumable: call UpgradeFleet again with
// the returned report as prior and only the not-yet-committed routers are
// attempted.
//
// devices must line up with prior.Outcomes when resuming (same IDs).
func UpgradeFleet(op *core.Operator, devices []*core.Device, app *apps.App, cfg RolloutConfig, prior *RolloutReport) (*RolloutReport, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("network: no devices to upgrade")
	}
	if cfg.Link == nil {
		return nil, fmt.Errorf("network: rollout requires a link")
	}
	cfg = cfg.withDefaults(len(devices))
	model := timing.NiosIIPrototype()

	rep := &RolloutReport{Outcomes: make([]RouterOutcome, len(devices))}
	if prior != nil {
		rep.Target = prior.Target
		rep.Cost = prior.Cost
		// The traffic totals carry over too: Cost already accumulates
		// across runs, so restarting the packet counters at zero made a
		// resumed report internally inconsistent (attempts from two runs
		// against samples from one).
		rep.Processed = prior.Processed
		rep.Forwarded = prior.Forwarded
		rep.Dropped = prior.Dropped
		rep.Alarms = prior.Alarms
		rep.Faults = prior.Faults
	}
	var todo []int
	for i, dev := range devices {
		rep.Outcomes[i] = RouterOutcome{DeviceID: dev.ID, Phase: PhasePending, Wave: -1}
		if prior != nil {
			if po := prior.Outcome(dev.ID); po != nil && po.Phase == PhaseCommitted {
				rep.Outcomes[i] = *po
				continue
			}
		}
		todo = append(todo, i)
	}

	// Wave plan: canaries first, then fixed-size waves over the remainder.
	var waves [][]int
	if len(todo) > 0 {
		n := cfg.Canaries
		if n > len(todo) {
			n = len(todo)
		}
		waves = append(waves, todo[:n])
		for rest := todo[n:]; len(rest) > 0; {
			k := cfg.WaveSize
			if k > len(rest) {
				k = len(rest)
			}
			waves = append(waves, rest[:k])
			rest = rest[k:]
		}
	}

	finish := func(reason string, err error) (*RolloutReport, error) {
		rep.Reason = reason
		rep.Conserved = true
		for _, dev := range devices {
			if !dev.Stats().Conserved() {
				rep.Conserved = false
			}
		}
		rep.Completed = err == nil && !rep.RolledBack
		for i := range rep.Outcomes {
			if rep.Outcomes[i].Phase != PhaseCommitted {
				rep.Completed = false
			}
		}
		publishRollout(rep, cfg.Link.Obs)
		return rep, err
	}
	account := func(d [3]uint64, h npu.HealthSample) {
		rep.Processed += h.Processed
		rep.Forwarded += d[0]
		rep.Dropped += d[1]
		rep.Alarms += d[2]
		rep.Faults += h.Events - d[2]
	}

	for wv, wave := range waves {
		rep.Waves = wv + 1
		canaryWave := wv == 0
		var committedThisWave []int

		for _, i := range wave {
			dev := devices[i]
			out := &rep.Outcomes[i]
			out.Wave = wv

			// Pre-upgrade baseline on live traffic: the old version keeps
			// serving while everything below happens.
			gen := packet.NewGenerator(cfg.Seed ^ int64(i)<<8 ^ int64(wv))
			base, d, err := sampleHealth(dev, gen, cfg.Gate.HealthPackets)
			account(d, base)
			if err != nil {
				return finish(fmt.Sprintf("baseline traffic on %s failed: %v", dev.ID, err),
					fmt.Errorf("network: baseline on %s: %w", dev.ID, err))
			}
			out.Baseline = base

			// Stage over the lossy link with retries; the live version is
			// untouched whether this succeeds or not.
			wire, err := op.ProgramWire(dev.Public(), app)
			if err != nil {
				return finish(fmt.Sprintf("packaging for %s failed", dev.ID),
					fmt.Errorf("network: packaging for %s: %w", dev.ID, err))
			}
			drep := deliverWithRetry(dev, wire, cfg.Link, cfg.Policy, model, cfg.Seed, (*core.Device).StageUpgrade)
			out.Delivery = &drep
			rep.Cost.AddDelivery(drep.WireSeconds, drep.ProcessSeconds, drep.BackoffSeconds,
				drep.Attempts, drep.Err == nil)
			if drep.Err != nil {
				out.Err = drep.Err
				if canaryWave {
					// Nothing has committed anywhere: abort any staged
					// canaries and leave the fleet exactly as it was.
					for _, j := range wave {
						devices[j].AbortUpgrade()
						if rep.Outcomes[j].Phase == PhaseStaged {
							rep.Outcomes[j].Phase = PhasePending
						}
					}
					out.Phase = PhaseFailed
					return finish(fmt.Sprintf("canary %s unreachable", dev.ID),
						fmt.Errorf("%w: %s: %v", ErrCanaryDelivery, dev.ID, drep.Err))
				}
				out.Phase = PhaseFailed
				continue
			}
			out.Phase = PhaseStaged
			if rep.Target == "" && drep.Install != nil {
				rep.Target = drep.Install.App
			}
		}

		// Commit the wave's staged routers, each cutting over at its own
		// packet boundary.
		for _, i := range wave {
			if rep.Outcomes[i].Phase != PhaseStaged {
				continue
			}
			cycles, err := devices[i].CommitUpgrade()
			rep.Cost.DrainCycles += cycles
			if err != nil {
				rep.Outcomes[i].Phase = PhaseFailed
				rep.Outcomes[i].Err = err
				continue
			}
			rep.Outcomes[i].Phase = PhaseCommitted
			committedThisWave = append(committedThisWave, i)
		}

		// Health gate: every router committed this wave runs post-commit
		// traffic and is compared to its own baseline.
		for _, i := range committedThisWave {
			dev := devices[i]
			out := &rep.Outcomes[i]
			gen := packet.NewGenerator(cfg.Seed ^ int64(i)<<8 ^ int64(wv) ^ 0x5a5a)
			after, d, err := sampleHealth(dev, gen, cfg.Gate.HealthPackets)
			account(d, after)
			out.After = after
			regressed := cfg.Gate.Regressed(out.Baseline, after)
			if err != nil {
				// The new version took the whole NP down (all cores
				// quarantined) — the strongest possible regression.
				regressed = true
			}
			if !regressed {
				continue
			}
			out.Err = fmt.Errorf("%w: %s rate %.4f vs baseline %.4f (+%d quarantines)",
				ErrHealthRegression, dev.ID, after.Rate(), out.Baseline.Rate(), after.Quarantines)

			// Fleet-wide rollback: every committed router — this wave,
			// earlier waves, prior runs — returns to the retained version.
			for _, j := range rep.committed() {
				cycles, rbErr := devices[j].RollbackUpgrade()
				rep.Cost.DrainCycles += cycles
				if rbErr != nil {
					rep.Outcomes[j].Err = fmt.Errorf("rollback on %s: %w", devices[j].ID, rbErr)
					continue
				}
				rep.Outcomes[j].Phase = PhaseRolledBack
			}
			// Staged-but-uncommitted routers in later waves never existed;
			// drop anything staged.
			for _, dev := range devices {
				dev.AbortUpgrade()
			}
			rep.RolledBack = true
			return finish(fmt.Sprintf("health regression on %s; fleet rolled back", dev.ID), out.Err)
		}
	}

	return finish("", nil)
}

// publishRollout exports a rollout report's running totals into the link's
// collector: the cost aggregate plus the fleet traffic gauges. Everything is
// a Set, so a resumed rollout republishing its carried-forward totals stays
// consistent with the report instead of doubling. Nil-safe.
func publishRollout(rep *RolloutReport, col *obs.Collector) {
	reg := col.Registry()
	if reg == nil {
		return
	}
	rep.Cost.Publish(reg)
	reg.Gauge("rollout_packets_processed").Set(float64(rep.Processed))
	reg.Gauge("rollout_packets_forwarded").Set(float64(rep.Forwarded))
	reg.Gauge("rollout_packets_dropped").Set(float64(rep.Dropped))
	reg.Gauge("rollout_alarms").Set(float64(rep.Alarms))
	reg.Gauge("rollout_faults").Set(float64(rep.Faults))
	reg.Gauge("rollout_waves").Set(float64(rep.Waves))
}
