package campaign

import (
	"fmt"

	"sdmmon/internal/fault"
	"sdmmon/internal/npu"
	"sdmmon/internal/threat"
)

// The graded-response drills grade per-core alarm rates with a poison duty
// cycle: each tick a drill corrupts an attacked core's entry instruction,
// steers the attack share of that core's packets through it (every one
// trips the monitor), re-installs the clean bundle, and runs the remainder
// clean. A core's alarm rate therefore tracks the attack duty exactly,
// which is what lets one mechanism express a sudden burst, a staged ramp,
// and a below-baseline drip. The drills run with the arithmetic-sum
// compression and their own parameter salt (the family table's defaults).

// drillProbes bounds the packets one attack spends re-rolling the poison
// word when a hash collision leaves a probe silent.
const drillProbes = 4

type drillDriver struct {
	inj     *fault.Injector
	shard   int
	cores   []int
	dutyAt  func(t int) float64
	surgeAt func(t int) int

	// slot is the (tick, shard, core) under attack, probes the poisons
	// spent on it so far, fired whether its monitor has alarmed.
	slot   [3]int
	probes int
	fired  bool
}

func newDrillDriver(c *campaign, shard int, cores []int, duty func(int) float64, surge func(int) int) *drillDriver {
	return &drillDriver{inj: fault.New(c.spec.Seed), shard: shard, cores: cores, dutyAt: duty, surgeAt: surge}
}

// newBurstDriver attacks every core of shard 1 at full duty for six ticks
// after warmup, with 60 extra arrivals per tick aimed at the shard.
func newBurstDriver(c *campaign) (driver, error) {
	all := make([]int, c.spec.Cores)
	for i := range all {
		all[i] = i
	}
	in := func(t int) bool { return t >= Warmup && t < Warmup+6 }
	return newDrillDriver(c, 1%c.spec.Shards, all,
		func(t int) float64 {
			if in(t) {
				return 1
			}
			return 0
		},
		func(t int) int {
			if in(t) {
				return 60
			}
			return 0
		}), nil
}

// rampSteps is the ramp's duty staircase, six ticks per step after warmup.
var rampSteps = []float64{1.0 / 8, 1.0 / 4, 1.0 / 2, 1}

// newRampDriver walks core 1 of shard 0 up the duty staircase.
func newRampDriver(c *campaign) (driver, error) {
	return newDrillDriver(c, 0, []int{1}, func(t int) float64 {
		if i := (t - Warmup) / 6; t >= Warmup && i < len(rampSteps) {
			return rampSteps[i]
		}
		return 0
	}, noSurge), nil
}

// newDripDriver poisons 1/32 of the last core's packets on the last shard
// from the first tick on.
func newDripDriver(c *campaign) (driver, error) {
	return newDrillDriver(c, c.spec.Shards-1, []int{c.spec.Cores - 1},
		func(int) float64 { return 1.0 / 32 }, noSurge), nil
}

func noSurge(int) int { return 0 }

func (d *drillDriver) detectLevel() threat.Level { return threat.Medium }
func (d *drillDriver) attackShard() int          { return d.shard }
func (d *drillDriver) attackCores() []int        { return d.cores }
func (d *drillDriver) duty(t int) float64        { return d.dutyAt(t) }
func (d *drillDriver) surge(t int) (int, int)    { return d.shard, d.surgeAt(t) }

// craft poisons the core's entry instruction before each probe until the
// monitor fires or drillProbes are spent; the remaining attack packets run
// on the poisoned core.
func (d *drillDriver) craft(c *campaign, t, shard, core int) (int, []byte, bool, error) {
	if slot := [3]int{t, shard, core}; slot != d.slot {
		d.slot, d.probes, d.fired = slot, 0, false
	}
	if !d.fired && d.probes < drillProbes {
		cr, err := c.nps[shard].Core(core)
		if err != nil {
			return 0, nil, false, err
		}
		d.inj.Poison(cr, cr.Program().Entry)
		d.probes++
	}
	return 0, c.gen.Next(), true, nil
}

func (d *drillDriver) observe(c *campaign, t, shard, core, mi int, res npu.Result) error {
	d.fired = d.fired || res.Detected
	return nil
}

// heal reinstalls the clean bundle on the attacked core.
func (d *drillDriver) heal(c *campaign, shard, core int) error {
	return c.nps[shard].Install(core, c.appName, c.bin, c.gb, c.param)
}

func (d *drillDriver) afterTick(*campaign, int, threat.Level) error { return nil }
func (d *drillDriver) finish(*campaign)                             {}

// checkBurst: the burst must reach CRITICAL, fire the full response
// battery, and recover.
func checkBurst(r *Result) error {
	switch {
	case r.Peak != threat.Critical:
		return fmt.Errorf("burst: peaked at %s, want %s", r.Peak, threat.Critical)
	case len(r.Incidents) == 0:
		return fmt.Errorf("burst: captured no incidents")
	case !r.LockdownFired:
		return fmt.Errorf("burst: never locked the plane down")
	case r.FailedShards == 0:
		return fmt.Errorf("burst: never rehashed the attacked shard")
	case !r.StagedZeroized || r.StagedLeft != 0:
		return fmt.Errorf("burst: left %d staged bundles (zeroized=%v)", r.StagedLeft, r.StagedZeroized)
	case r.Final > threat.Low:
		return fmt.Errorf("burst: ended at %s, want <= %s after recovery", r.Final, threat.Low)
	}
	return nil
}

// checkRamp: the ramp must enter at LOW, peak at HIGH or above, and be
// ended by core isolation.
func checkRamp(r *Result) error {
	switch {
	case len(r.Trajectory) == 0 || r.Trajectory[0].To != threat.Low:
		return fmt.Errorf("ramp: first transition is not to %s: %+v", threat.Low, r.Trajectory)
	case r.Peak < threat.High:
		return fmt.Errorf("ramp: peaked at %s, want >= %s", r.Peak, threat.High)
	case len(r.Incidents) == 0:
		return fmt.Errorf("ramp: captured no incidents")
	case r.IsolatedCores == 0:
		return fmt.Errorf("ramp: never isolated the offending core")
	case r.Final > threat.Low:
		return fmt.Errorf("ramp: ended at %s, want <= %s after isolation", r.Final, threat.Low)
	}
	return nil
}

// checkDrip: the drip must never rise past LOW and capture nothing.
func checkDrip(r *Result) error {
	if r.Peak > threat.Low {
		return fmt.Errorf("drip: escalated to %s — the drip was supposed to stay under the baseline", r.Peak)
	}
	if len(r.Incidents) != 0 {
		return fmt.Errorf("drip: captured %d incidents, want 0", len(r.Incidents))
	}
	return nil
}
