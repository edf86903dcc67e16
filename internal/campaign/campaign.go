// Package campaign implements the adversarial attack-campaign engine: a
// seeded, mutation-driven corpus of attack families run as deterministic
// fault injection against real monitored NPs, the modeled traffic plane,
// and the live threat classifier. The paper demonstrates *that* the
// hardware monitor detects its stack-smash attack; this package measures
// *how fast* and against *what diversity* — packets-to-detection
// distributions per family, and evasion depth for the mutants that slip
// through.
//
// The five adversarial families attack through the front door: real
// crafted packets (stack-smash overflows carrying mutated payloads)
// processed by real monitored cores, traffic bursts aimed at the
// admission/ECN path, and collision probes against the live Merkle hash
// parameter. The three graded-response drills (burst, ramp, drip) instead
// poison installed entry instructions on a fixed duty schedule, grading
// the threat engine's responses (drill.go). All eight run on one chassis,
// and a campaign is a pure function of its Spec: the same seed reproduces
// the same mutation sequence, detection trajectory, and incident bytes.
package campaign

import (
	"fmt"

	"sdmmon/internal/apps"
	"sdmmon/internal/asm"
	"sdmmon/internal/attack"
	"sdmmon/internal/mhash"
	"sdmmon/internal/monitor"
	"sdmmon/internal/npu"
	"sdmmon/internal/obs"
	"sdmmon/internal/packet"
	"sdmmon/internal/threat"
)

// Campaign families — the attack taxonomy from the related work.
const (
	// FamilyGadget mounts ROP-style gadget-chain control-flow attacks:
	// chains of legitimate app instruction sequences (R5Detect's family)
	// delivered through the stack-smash overflow, walking a duty staircase
	// until the classifier isolates the core.
	FamilyGadget = "gadget"
	// FamilyCollision runs a budget-capped partial-hash collision search
	// against the live Merkle parameter: seeded store variants probed until
	// one lands persistent corruption or the search budget exhausts.
	FamilyCollision = "collision"
	// FamilySlowDrip adaptively titrates the poison duty cycle against the
	// engine's EWMA baselines, finding the highest duty that stays at or
	// below LOW (the evasion frontier) before retreating.
	FamilySlowDrip = "slowdrip"
	// FamilyNoC aims malicious cross-shard traffic bursts at the plane's
	// admission/ECN path (LeMay & Gunter's NoC-firewall family): mutated
	// burst intensities straddling the congestion-detection threshold.
	FamilyNoC = "noc"
	// FamilyPoison trains the EWMA baseline with a slow ramp before
	// striking — the adversarial baseline-poisoning case FreezeAt exists
	// to contain.
	FamilyPoison = "poison"
)

// Graded-response drill families (drill.go): entry-instruction poison on a
// fixed duty schedule, each pinning one qualitative threat trajectory.
const (
	// FamilyBurst attacks every core of one shard at full duty with an
	// arrival surge: NONE jumps straight to CRITICAL, the full response
	// battery fires, and the plane recovers after the burst.
	FamilyBurst = "burst"
	// FamilyRamp climbs one core's duty 1/8 → 1/4 → 1/2 → 1, walking the
	// classifier up LOW → MEDIUM → HIGH, where isolating the core ends the
	// attack.
	FamilyRamp = "ramp"
	// FamilyDrip attacks from the first tick at a duty just under the EWMA
	// baseline's sensitivity: the classifier must stay at or below LOW and
	// capture no incidents (the evasion regression).
	FamilyDrip = "drip"
)

// Families lists the adversarial campaign families in canonical order.
func Families() []string { return familyNames(familyTable[:numAdversarial]) }

// DrillFamilies lists the graded-response drill families in canonical
// order.
func DrillFamilies() []string { return familyNames(familyTable[numAdversarial:]) }

// Config parameterizes a campaign; zero fields select family defaults.
// ResolveSpec turns a Config into the canonical wire Spec.
type Config struct {
	Family string
	Seed   int64
	// Shards and Cores size the modeled plane; 0 selects 3 shards of 4
	// cores.
	Shards int
	Cores  int
	// Ticks is the campaign length in virtual ticks; 0 selects the family
	// default.
	Ticks int
	// PacketsPerTick is the plane-wide arrival rate; 0 selects 30 per
	// shard.
	PacketsPerTick int
	// Mutants sizes the mutation pool (gadget chains, noc bursts); 0
	// selects the family default.
	Mutants int
	// ProbeBudget / CycleBudget cap the collision family's search
	// (attack.SearchBudget semantics); 0 selects 192 probes, uncapped
	// cycles.
	ProbeBudget int
	CycleBudget uint64
	// Compression selects the Merkle compression: "sbox" (default — the
	// containment-bearing nonlinear compression) or "sum" (the paper's
	// collapse-prone arithmetic sum).
	Compression string
	// Duty, when > 0, pins the slowdrip family to a fixed duty cycle after
	// warmup instead of the adaptive titration — the regression fixture
	// for SlowDripDutyFloor.
	Duty float64
	// FreezeAt overrides the engine's baseline-freeze level; zero keeps
	// the campaign default (threat.Low). The poison family's FreezeAt
	// tests set threat.Critical to model an engine without containment.
	FreezeAt threat.Level
}

// Campaign model tuning: per-shard ingress queue and service rates in
// packets per tick. Service exceeds the nominal arrival rate, so
// backpressure appears only under a genuine surge.
const (
	queueCap  = 64
	markAt    = 32
	drainRate = 40
	// Warmup is the clean ticks most families run before attacking, giving
	// the EWMA baselines a quiet floor (the poison family deliberately
	// skips it — training the baseline is its attack).
	Warmup = 12
)

// Salts deriving a campaign's hidden hash parameter from its seed:
// paramSalt for the adversarial families, the live drill and the tenant
// drill; drillSalt for the graded-response drills. Both are distinct from
// the bench (0x600D) stream.
const (
	paramSalt = 0xCAFE
	drillSalt = 0x7417
)

// Stats is the campaign model's packet accounting. Conservation:
// Arrived == Processed + TailDrops + Starved + Backlog.
type Stats struct {
	Arrived   uint64
	Processed uint64
	TailDrops uint64
	Marked    uint64
	Starved   uint64
	Backlog   uint64
	Alarms    uint64
	Faults    uint64
}

// Conserved checks the model's packet conservation.
func (s Stats) Conserved() bool {
	return s.Arrived == s.Processed+s.TailDrops+s.Starved+s.Backlog
}

// MutantOutcome records one mutant's fate: what it was, how many packets
// it injected, whether the classifier caught it, and how deep it got.
type MutantOutcome struct {
	Index int    `json:"index"`
	Kind  string `json:"kind"`
	// Tick is when the mutant first ran.
	Tick int `json:"tick"`
	// Packets it injected (attack packets, or extra arrivals for bursts).
	Packets int `json:"packets"`
	// Detected: the classifier reached the family's detection level while
	// this mutant was active (bursts), or the monitor alarmed on its
	// packets (code-carrying mutants).
	Detected bool `json:"detected"`
	// Depth is the family's evasion-depth metric for this mutant: matched
	// hash-prefix length for gadget chains, packets slipped for drips and
	// evading bursts.
	Depth int `json:"depth"`
}

// CollisionMetrics is the collision family's search-effort summary
// (attack.SearchStats without the host-timing WallSeconds, which must stay
// out of the deterministic replay bytes).
type CollisionMetrics struct {
	Attempts   int    `json:"attempts"`
	Cycles     uint64 `json:"cycles"`
	Exhausted  bool   `json:"exhausted"`
	Found      bool   `json:"found"`
	FoundProbe int    `json:"found_probe"` // -1 when the budget exhausted first
}

// SlowDripMetrics is the slowdrip family's titration summary.
type SlowDripMetrics struct {
	// FrontierDuty is the highest duty cycle the adaptive search sustained
	// at or below LOW.
	FrontierDuty float64 `json:"frontier_duty"`
	// SlippedPackets counts attack packets processed while the classifier
	// sat at or below LOW.
	SlippedPackets int64 `json:"slipped_packets"`
	Epochs         int   `json:"epochs"`
	Retreated      bool  `json:"retreated"`
}

// Result is everything a campaign run produced. ReplayBytes serializes it
// canonically; two runs of the same Spec must be byte-identical.
type Result struct {
	Family string `json:"family"`
	Seed   int64  `json:"seed"`
	Spec   Spec   `json:"spec"`

	Trajectory    []threat.LevelTransition `json:"trajectory"`
	Incidents     []threat.IncidentRecord  `json:"incidents"`
	IncidentBytes []byte                   `json:"incident_bytes"`
	Peak          threat.Level             `json:"peak"`
	Final         threat.Level             `json:"final"`
	Stats         Stats                    `json:"stats"`

	// PacketsToLevel[l] is how many packets had arrived when the
	// classifier first reached level l; -1 if it never did.
	PacketsToLevel [threat.NumLevels]int64 `json:"packets_to_level"`
	// PacketsToDetect is the arrivals count when the classifier first
	// reached the family's detection level; -1 if the campaign evaded.
	PacketsToDetect int64 `json:"packets_to_detect"`

	Mutants         []MutantOutcome `json:"mutants"`
	MutantsDetected int             `json:"mutants_detected"`
	// EvasionDepth is the family's aggregate depth metric for undetected
	// mutants (mean matched prefix, frontier duty, or slipped packets).
	EvasionDepth float64 `json:"evasion_depth"`

	Collision *CollisionMetrics `json:"collision,omitempty"`
	SlowDrip  *SlowDripMetrics  `json:"slowdrip,omitempty"`

	// Response summary.
	IsolatedCores      int  `json:"isolated_cores"`
	FailedShards       int  `json:"failed_shards"`
	AdmissionTightened int  `json:"admission_tightened"`
	LockdownFired      bool `json:"lockdown_fired"`
	StagedZeroized     bool `json:"staged_zeroized"`
	StagedLeft         int  `json:"staged_left"`
}

// driver is one family's attack logic plugged into the shared chassis.
type driver interface {
	// detectLevel is the threat level at which the family counts as
	// detected (PacketsToDetect latches when the classifier first reaches
	// it).
	detectLevel() threat.Level
	// attackShard/attackCores name where this tick's packet attack lands;
	// empty cores means the family attacks through traffic shape only.
	attackShard() int
	attackCores() []int
	// duty is the attack share of the attacked cores' packets at a tick.
	duty(t int) float64
	// surge returns extra arrivals aimed at a shard this tick.
	surge(t int) (shard, extra int)
	// craft produces the next attack packet for an attack slot; ok=false
	// downgrades the remaining slots this tick to clean traffic.
	craft(c *campaign, t, shard, core int) (mi int, pkt []byte, ok bool, err error)
	// observe sees the processed result of a crafted packet.
	observe(c *campaign, t, shard, core, mi int, res npu.Result) error
	// afterTick runs once per tick with the engine's post-tick level.
	afterTick(c *campaign, t int, lvl threat.Level) error
	// finish fills family metrics into c.res after the last tick.
	finish(c *campaign)
}

// healer is the one optional driver hook: a driver implementing it is
// called after a core's attack packets and before its clean packets each
// tick, to undo what its attack did to the core.
type healer interface {
	heal(c *campaign, shard, core int) error
}

// campaign is the run state; it implements threat.Responder so the
// engine's graded responses mutate the model it is watching.
type campaign struct {
	spec Spec
	drv  driver

	nps  []*npu.NP
	cols []*obs.Collector
	gen  *packet.Generator
	rng  *rng

	appName string
	prog    *asm.Program
	bin, gb []byte
	param   uint32
	hasher  mhash.Hasher
	smash   attack.SmashConfig

	alive    []bool
	isolated [][]bool
	depth    []int
	capac    []int
	markAt   []int
	origAdm  map[int][2]int
	lockdown bool

	// per-shard cumulative accounting
	arrived, processed, tailDrops, marked, starved []uint64
	alarms, faults                                 []uint64

	// atkAcc is the attacked cores' duty-cycle error-diffusion accumulator.
	atkAcc map[int]float64
	// atkTick counts attack packets processed in the current tick (drivers
	// read it in afterTick for slip accounting).
	atkTick int
	// lastLevel is the engine level after the previous tick.
	lastLevel threat.Level

	res Result
}

// Responder implementation: the model mirror of threat.PlaneResponder.

func (c *campaign) TightenAdmission(shard int) error {
	if shard < 0 || shard >= len(c.capac) {
		return fmt.Errorf("campaign: no shard %d", shard)
	}
	if _, ok := c.origAdm[shard]; !ok {
		c.origAdm[shard] = [2]int{c.capac[shard], c.markAt[shard]}
	}
	c.capac[shard] = max(1, c.capac[shard]/2)
	c.markAt[shard] = max(1, min(c.markAt[shard]/2, c.capac[shard]))
	c.res.AdmissionTightened++
	return nil
}

func (c *campaign) IsolateCore(shard, core int) error {
	if shard < 0 || shard >= len(c.nps) {
		return fmt.Errorf("campaign: no shard %d", shard)
	}
	if err := c.nps[shard].Quarantine(core); err != nil {
		return err
	}
	if !c.isolated[shard][core] {
		c.isolated[shard][core] = true
		c.res.IsolatedCores++
	}
	return nil
}

func (c *campaign) RehashShard(shard int) error {
	if shard < 0 || shard >= len(c.alive) {
		return fmt.Errorf("campaign: no shard %d", shard)
	}
	if c.alive[shard] {
		c.alive[shard] = false
		// Shed the queue as starved drops, mirroring the plane's failover.
		c.starved[shard] += uint64(c.depth[shard])
		c.depth[shard] = 0
		c.res.FailedShards++
	}
	return nil
}

func (c *campaign) ZeroizeStaged() error {
	for _, np := range c.nps {
		np.AbortAllStaged()
	}
	c.res.StagedZeroized = true
	return nil
}

func (c *campaign) Lockdown() error {
	c.lockdown = true
	c.res.LockdownFired = true
	return nil
}

func (c *campaign) Relax(to threat.Level) error {
	if to < threat.Critical {
		c.lockdown = false
	}
	if to >= threat.Medium {
		return nil
	}
	for shard, adm := range c.origAdm {
		c.capac[shard], c.markAt[shard] = adm[0], adm[1]
	}
	c.origAdm = map[int][2]int{}
	return nil
}

// activeCores lists a shard's non-isolated cores, ascending.
func (c *campaign) activeCores(shard int) []int {
	var out []int
	for core := 0; core < c.spec.Cores; core++ {
		if !c.isolated[shard][core] {
			out = append(out, core)
		}
	}
	return out
}

// scrubScratch zeroes a core's scratch region — the collision family's
// between-probe reset (the operator reimages after each detected probe;
// the attacker still wins the moment one store slips through first).
func (c *campaign) scrubScratch(shard, core int) error {
	cr, err := c.nps[shard].Core(core)
	if err != nil {
		return err
	}
	cr.Mem().WriteBytes(uint32(apps.ScratchBase), make([]byte, 2048))
	return nil
}

// coreTally is one core's per-tick packet accounting.
type coreTally struct {
	packets, alarms, outliers uint64
}

func (t *coreTally) count(c *campaign, shard int, res npu.Result) {
	t.packets++
	c.processed[shard]++
	if res.Detected {
		t.alarms++
		c.alarms[shard]++
	}
	if res.Faulted {
		c.faults[shard]++
	}
	if float64(res.Cycles) > 2048 {
		t.outliers++
	}
}

// RunCampaign resolves the config and executes one seeded campaign.
// Deterministic: same config, same result, byte for byte.
func RunCampaign(cfg Config) (*Result, error) {
	spec, err := ResolveSpec(cfg)
	if err != nil {
		return nil, err
	}
	return RunSpec(spec)
}

// RunSpec executes a campaign from its canonical resolved spec — the entry
// point replays use after decoding wire bytes.
func RunSpec(spec Spec) (*Result, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}

	app, err := apps.ByName("ipv4cm")
	if err != nil {
		return nil, err
	}
	prog, err := app.Program()
	if err != nil {
		return nil, err
	}
	fam, err := lookupFamily(spec.Family)
	if err != nil {
		return nil, err
	}
	param := uint32(spec.Seed)*2654435761 + fam.salt
	mk, err := hasherMaker(spec.Compression)
	if err != nil {
		return nil, err
	}
	h := mk(param)
	g, err := monitor.Extract(prog, h)
	if err != nil {
		return nil, err
	}

	c := &campaign{
		spec:    spec,
		gen:     packet.NewGenerator(spec.Seed),
		rng:     newRNG(spec.Seed, "campaign-"+spec.Family),
		appName: "ipv4cm", prog: prog,
		bin: prog.Serialize(), gb: g.Serialize(),
		param: param, hasher: h,
		smash:   attack.DefaultSmash(),
		origAdm: map[int][2]int{}, atkAcc: map[int]float64{},
	}
	c.res = Result{Family: spec.Family, Seed: spec.Seed, Spec: spec, PacketsToDetect: -1}
	for l := range c.res.PacketsToLevel {
		c.res.PacketsToLevel[l] = -1
	}
	c.res.PacketsToLevel[threat.None] = 0

	for i := 0; i < spec.Shards; i++ {
		// No per-core supervisor: the threat engine is the only quarantine
		// authority, so the trajectory measures its response alone.
		col := obs.New(256)
		np, err := npu.New(npu.Config{
			Cores: spec.Cores, MonitorsEnabled: true, Obs: col, NewHasher: mk,
		})
		if err != nil {
			return nil, err
		}
		if err := np.InstallAll(c.appName, c.bin, c.gb, param); err != nil {
			return nil, err
		}
		// Stage an upgrade bundle so the zeroize_staged response has
		// something real to discard.
		if err := np.StageInstallAll(c.appName, c.bin, c.gb, param); err != nil {
			return nil, err
		}
		c.nps = append(c.nps, np)
		c.cols = append(c.cols, col)
		c.alive = append(c.alive, true)
		c.isolated = append(c.isolated, make([]bool, spec.Cores))
		c.depth = append(c.depth, 0)
		c.capac = append(c.capac, queueCap)
		c.markAt = append(c.markAt, markAt)
	}
	n := spec.Shards
	c.arrived = make([]uint64, n)
	c.processed = make([]uint64, n)
	c.tailDrops = make([]uint64, n)
	c.marked = make([]uint64, n)
	c.starved = make([]uint64, n)
	c.alarms = make([]uint64, n)
	c.faults = make([]uint64, n)

	if c.drv, err = fam.newDriver(c); err != nil {
		return nil, err
	}

	ecfg := threat.CampaignEngineConfig()
	ecfg.Responder = c
	ecfg.Forensics = c.cols
	ecfg.StatsFn = c.statsMap
	if spec.FreezeAt != 0 {
		ecfg.FreezeAt = spec.FreezeAt
	}
	eng, err := threat.NewEngine(ecfg)
	if err != nil {
		return nil, err
	}

	detectAt := c.drv.detectLevel()
	for t := 0; t < spec.Ticks; t++ {
		c.atkTick = 0
		samples, err := c.tick(t)
		if err != nil {
			return nil, err
		}
		tr, err := eng.Tick(threat.Tick(t), samples)
		if err != nil {
			return nil, err
		}
		if tr != nil && tr.To > tr.From {
			for l := tr.From + 1; l <= tr.To; l++ {
				if c.res.PacketsToLevel[l] < 0 {
					c.res.PacketsToLevel[l] = int64(c.totalArrived())
				}
			}
			if tr.To >= detectAt && c.res.PacketsToDetect < 0 {
				c.res.PacketsToDetect = int64(c.totalArrived())
			}
		}
		lvl := eng.Level()
		if lvl > c.res.Peak {
			c.res.Peak = lvl
		}
		if err := c.drv.afterTick(c, t, lvl); err != nil {
			return nil, err
		}
		c.lastLevel = lvl
	}

	c.res.Trajectory = eng.Trajectory()
	c.res.Incidents = eng.Incidents()
	if c.res.IncidentBytes, err = eng.IncidentBytes(); err != nil {
		return nil, err
	}
	c.res.Final = eng.Level()
	c.res.Stats = c.totalStats()
	for _, np := range c.nps {
		for core := 0; core < spec.Cores; core++ {
			if np.HasStaged(core) {
				c.res.StagedLeft++
			}
		}
	}
	c.drv.finish(c)
	for _, m := range c.res.Mutants {
		if m.Detected {
			c.res.MutantsDetected++
		}
	}
	return &c.res, nil
}

// Check asserts the family's expected outcome — the self-assertions the
// npsim -campaign drill exits non-zero on. When Spec.FreezeAt overrides
// the campaign default, only the structural invariants are enforced: the
// override exists precisely to study degraded-containment trajectories.
func (r *Result) Check() error {
	if !r.Stats.Conserved() {
		return fmt.Errorf("campaign: %s packet conservation violated: %+v", r.Family, r.Stats)
	}
	fam, err := lookupFamily(r.Family)
	if err != nil || r.Spec.FreezeAt != 0 {
		return err
	}
	return fam.check(r)
}

func (c *campaign) totalArrived() uint64 {
	var v uint64
	for _, a := range c.arrived {
		v += a
	}
	return v
}

func (c *campaign) totalStats() Stats {
	var s Stats
	for i := range c.arrived {
		s.Arrived += c.arrived[i]
		s.Processed += c.processed[i]
		s.TailDrops += c.tailDrops[i]
		s.Marked += c.marked[i]
		s.Starved += c.starved[i]
		s.Backlog += uint64(c.depth[i])
		s.Alarms += c.alarms[i]
		s.Faults += c.faults[i]
	}
	return s
}

// statsMap feeds the engine's incident stats-delta capture.
func (c *campaign) statsMap() map[string]uint64 {
	s := c.totalStats()
	return map[string]uint64{
		"arrived":    s.Arrived,
		"processed":  s.Processed,
		"tail_drops": s.TailDrops,
		"marked":     s.Marked,
		"starved":    s.Starved,
		"alarms":     s.Alarms,
		"faults":     s.Faults,
	}
}

// tick advances the model one virtual time step: arrivals (plus the
// family's surge), admission, service with crafted attack packets on the
// attacked cores, and sampling in the live Sampler's canonical order.
func (c *campaign) tick(t int) ([]threat.Sample, error) {
	perShard := make([]int, c.spec.Shards)
	var live []int
	for i, a := range c.alive {
		if a {
			live = append(live, i)
		}
	}
	if len(live) > 0 {
		for i := 0; i < c.spec.PacketsPerTick; i++ {
			perShard[live[i%len(live)]]++
		}
	}
	if ss, extra := c.drv.surge(t); extra > 0 && ss >= 0 && ss < c.spec.Shards && c.alive[ss] {
		perShard[ss] += extra
	}

	duty := c.drv.duty(t)
	atkShard := c.drv.attackShard()
	attacked := map[int]bool{}
	for _, core := range c.drv.attackCores() {
		attacked[core] = true
	}

	samples := make([]threat.Sample, 0, c.spec.Shards*(c.spec.Cores*2+2))
	for s := 0; s < c.spec.Shards; s++ {
		var arrivedNow, pressureNow uint64
		tokens := drainRate
		toProcess := 0

		if c.alive[s] {
			for i := 0; i < perShard[s]; i++ {
				c.arrived[s]++
				arrivedNow++
				// Backpressure measures congestion (marks and tail drops per
				// arrival), matching the live Sampler. Lockdown starvation is
				// deliberately NOT pressure: a response must not feed the
				// detector that fired it, or CRITICAL becomes self-sustaining.
				if c.lockdown {
					c.starved[s]++
					continue
				}
				if tokens > 0 {
					tokens--
					toProcess++
					continue
				}
				if c.depth[s] >= c.capac[s] {
					c.tailDrops[s]++
					pressureNow++
					continue
				}
				if c.depth[s] >= c.markAt[s] {
					c.marked[s]++
					pressureNow++
				}
				c.depth[s]++
			}
			// Leftover service drains backlog from earlier ticks.
			drain := min(c.depth[s], tokens)
			c.depth[s] -= drain
			toProcess += drain
		}

		// Round-robin this tick's packets over the active cores; attacked
		// cores spend their duty share on crafted attack packets.
		faultsBefore := c.faults[s]
		active := c.activeCores(s)
		tallies := make([]coreTally, c.spec.Cores)
		if len(active) > 0 && toProcess > 0 {
			quota := make([]int, len(active))
			for i := 0; i < toProcess; i++ {
				quota[i%len(active)]++
			}
			for ai, core := range active {
				q := quota[ai]
				if q == 0 {
					continue
				}
				nAtk := 0
				if s == atkShard && attacked[core] && duty > 0 {
					key := s*c.spec.Cores + core
					c.atkAcc[key] += duty * float64(q)
					nAtk = int(c.atkAcc[key])
					c.atkAcc[key] -= float64(nAtk)
					nAtk = min(nAtk, q)
				}
				tally := &tallies[core]
				sent := 0
				for sent < nAtk {
					mi, pkt, ok, err := c.drv.craft(c, t, s, core)
					if err != nil {
						return nil, err
					}
					if !ok {
						break
					}
					res, err := c.nps[s].ProcessOn(core, pkt, c.depth[s])
					if err != nil {
						return nil, err
					}
					sent++
					c.atkTick++
					tally.count(c, s, res)
					if err := c.drv.observe(c, t, s, core, mi, res); err != nil {
						return nil, err
					}
				}
				if h, ok := c.drv.(healer); ok && sent > 0 {
					if err := h.heal(c, s, core); err != nil {
						return nil, err
					}
				}
				for i := sent; i < q; i++ {
					res, err := c.nps[s].ProcessOn(core, c.gen.Next(), c.depth[s])
					if err != nil {
						return nil, err
					}
					tally.count(c, s, res)
				}
			}
		}

		// Emit this shard's samples in the sampler's canonical order.
		for core := 0; core < c.spec.Cores; core++ {
			tl := tallies[core]
			samples = append(samples,
				threat.Sample{Shard: s, Core: core, Signal: threat.SigAlarmRate,
					Value: rate(tl.alarms, tl.packets)},
				threat.Sample{Shard: s, Core: core, Signal: threat.SigCycleOutlier,
					Value: rate(tl.outliers, tl.packets)},
			)
		}
		var procNow uint64
		for core := range tallies {
			procNow += tallies[core].packets
		}
		samples = append(samples,
			threat.Sample{Shard: s, Core: -1, Signal: threat.SigFaultRate,
				Value: rate(c.faults[s]-faultsBefore, procNow)},
			threat.Sample{Shard: s, Core: -1, Signal: threat.SigBackpressure,
				Value: rate(pressureNow, arrivedNow)},
		)
	}
	return samples, nil
}

func rate(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func hasherMaker(compression string) (func(uint32) mhash.Hasher, error) {
	switch compression {
	case "sum":
		return func(p uint32) mhash.Hasher { return mhash.NewMerkle(p) }, nil
	case "sbox", "":
		return func(p uint32) mhash.Hasher {
			h, err := mhash.NewMerkleWith(p, 4, mhash.SBoxCompress())
			if err != nil {
				panic(err) // width 4 is always valid
			}
			return h
		}, nil
	}
	return nil, fmt.Errorf("campaign: unknown compression %q (want sum or sbox)", compression)
}

// family is one row of the family table: everything the chassis needs to
// resolve, run and check a family.
type family struct {
	name      string
	newDriver func(*campaign) (driver, error)
	// ticks is the default campaign length for a spec whose other
	// defaults are already applied.
	ticks func(Spec) int
	// mutants and probes are the default mutation pool and collision
	// search budget; 0 leaves the spec field unset. A family with a probe
	// default refuses an unbounded search.
	mutants, probes int
	compression     string
	salt            uint32
	check           func(*Result) error
}

func fixedTicks(n int) func(Spec) int { return func(Spec) int { return n } }

// familyTable holds every family: the numAdversarial adversarial families
// first, then the graded-response drills, each group in canonical order.
var familyTable = []family{
	{FamilyGadget, newGadgetDriver, fixedTicks(48), 24, 0, "sbox", paramSalt, checkGadget},
	{FamilyCollision, newCollisionDriver, fixedTicks(96), 0, 192, "sbox", paramSalt, checkCollision},
	{FamilySlowDrip, newSlowDripDriver, fixedTicks(80), 0, 0, "sbox", paramSalt, checkSlowDrip},
	{FamilyNoC, newNoCDriver, nocTicks, 8, 0, "sbox", paramSalt, checkNoC},
	{FamilyPoison, newPoisonDriver, fixedTicks(64), 0, 0, "sbox", paramSalt, checkPoison},
	{FamilyBurst, newBurstDriver, fixedTicks(36), 0, 0, "sum", drillSalt, checkBurst},
	{FamilyRamp, newRampDriver, fixedTicks(48), 0, 0, "sum", drillSalt, checkRamp},
	{FamilyDrip, newDripDriver, fixedTicks(40), 0, 0, "sum", drillSalt, checkDrip},
}

const numAdversarial = 5

func familyNames(rows []family) []string {
	out := make([]string, len(rows))
	for i, f := range rows {
		out[i] = f.name
	}
	return out
}

func lookupFamily(name string) (*family, error) {
	for i := range familyTable {
		if familyTable[i].name == name {
			return &familyTable[i], nil
		}
	}
	return nil, fmt.Errorf("campaign: unknown family %q (want one of %v or %v)",
		name, Families(), DrillFamilies())
}
