package threat

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"sdmmon/internal/obs"
)

// SignalPolicy couples one signal's baseline tuning with its absolute
// escape hatch.
type SignalPolicy struct {
	Baseline BaselineConfig
	// AbsHigh, when > 0, is the raw signal value at which the signal scores
	// at least the HIGH threshold even when its baseline has not armed —
	// the cold-start cover: an attack in the first ticks of a deployment
	// must not ride out the warmup window.
	AbsHigh float64
}

// DefaultSignalPolicies returns the per-signal tuning the campaigns are
// pinned against. All four signals are rates in [0, 1].
func DefaultSignalPolicies() [NumSignals]SignalPolicy {
	rate := BaselineConfig{Alpha: 0.2, Warmup: 8, MinStd: 0.02}
	var p [NumSignals]SignalPolicy
	p[SigAlarmRate] = SignalPolicy{Baseline: rate, AbsHigh: 0.5}
	p[SigFaultRate] = SignalPolicy{Baseline: rate, AbsHigh: 0.5}
	p[SigCycleOutlier] = SignalPolicy{Baseline: rate, AbsHigh: 0.5}
	p[SigBackpressure] = SignalPolicy{Baseline: BaselineConfig{Alpha: 0.2, Warmup: 8, MinStd: 0.05}, AbsHigh: 0.9}
	return p
}

// EngineConfig configures a threat engine.
type EngineConfig struct {
	// Signals is the per-signal baseline and absolute-threshold tuning.
	Signals [NumSignals]SignalPolicy
	// FSM is the classifier tuning.
	FSM FSMConfig
	// Policy maps levels to response actions.
	Policy Policy
	// Responder executes the actions; nil runs the engine record-only
	// (levels and incidents, no responses).
	Responder Responder
	// CaptureAt is the lowest escalation target that triggers a forensic
	// capture; the zero value selects High.
	CaptureAt Level
	// CaptureWindow bounds the pre-trigger events captured per forensic
	// collector; 0 selects 48.
	CaptureWindow int
	// FreezeAt is the level at or above which baselines stop absorbing
	// samples (the baseline-poisoning guard — an ongoing attack must not
	// normalize itself); the zero value selects Medium.
	FreezeAt Level
	// SynergyWeight scales the second-worst signal's contribution to a
	// shard's combined score when that signal is itself at least at the
	// LOW threshold (simultaneous multi-signal escalation); 0 selects 0.5.
	SynergyWeight float64
	// Forensics are the collectors whose EventRings incident records
	// snapshot; index = shard.
	Forensics []*obs.Collector
	// StatsFn, when set, supplies counter snapshots; incidents carry the
	// delta since the previous capture.
	StatsFn func() map[string]uint64
	// Obs receives the engine's own telemetry (threat_* metrics and
	// threat_level/threat_response/incident ring events on ring RingID).
	// Nil disables it.
	Obs *obs.Collector
	// RingID selects the engine's event ring in Obs.
	RingID int
}

// DefaultEngineConfig returns a record-only engine configuration with the
// default signal tuning, classifier, and policy.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{
		Signals: DefaultSignalPolicies(),
		FSM:     DefaultFSMConfig(),
		Policy:  DefaultPolicy(),
	}
}

// CampaignEngineConfig is the engine tuning the internal/campaign drills
// and families are pinned against. Alarm/fault MinStd 0.08 maps a poison
// duty cycle onto the default FSM thresholds (duty/0.08: 1/8 → LOW, 1/4 →
// MEDIUM, 1/2 → HIGH, 1 → CRITICAL); FreezeAt Low keeps a staged ramp from
// normalizing itself into the baseline.
func CampaignEngineConfig() EngineConfig {
	cfg := DefaultEngineConfig()
	rate := BaselineConfig{Alpha: 0.2, Warmup: 8, MinStd: 0.08}
	cfg.Signals[SigAlarmRate] = SignalPolicy{Baseline: rate, AbsHigh: 0.6}
	cfg.Signals[SigFaultRate] = SignalPolicy{Baseline: rate, AbsHigh: 0.6}
	cfg.Signals[SigCycleOutlier] = SignalPolicy{Baseline: rate, AbsHigh: 0.6}
	cfg.Signals[SigBackpressure] = SignalPolicy{
		Baseline: BaselineConfig{Alpha: 0.2, Warmup: 8, MinStd: 0.1}, AbsHigh: 0.95,
	}
	cfg.FreezeAt = Low
	return cfg
}

// baseKey identifies one (source, signal) baseline.
type baseKey struct {
	shard, core int
	signal      Signal
}

// Engine is the graded threat-response engine: EWMA baselines over the fed
// signals, the classifier FSM, policy-driven responses, and forensic
// capture. It is passive — it changes state only inside Tick, and only as
// a function of the samples and virtual time it is given — which is what
// makes trajectories replayable. Safe for concurrent use; Tick calls
// serialize.
type Engine struct {
	mu        sync.Mutex
	cfg       EngineConfig
	fsm       *FSM
	base      map[baseKey]*Baseline
	started   bool
	last      Tick
	traj      []LevelTransition
	incidents []IncidentRecord
	lastStats map[string]uint64

	ring                 *obs.EventRing
	gLevel               *obs.Gauge
	cEsc, cDeesc         *obs.Counter
	cIncident, cResponse *obs.Counter
}

// NewEngine validates the configuration and builds an engine at level None.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	for i := 0; i < NumSignals; i++ {
		if err := cfg.Signals[i].Baseline.Validate(); err != nil {
			return nil, fmt.Errorf("%w (signal %s)", err, Signal(i))
		}
		if cfg.Signals[i].AbsHigh < 0 {
			return nil, fmt.Errorf("threat: signal %s AbsHigh %v must be >= 0", Signal(i), cfg.Signals[i].AbsHigh)
		}
	}
	fsm, err := NewFSM(cfg.FSM)
	if err != nil {
		return nil, err
	}
	if cfg.CaptureAt == None {
		cfg.CaptureAt = High
	}
	if cfg.CaptureWindow == 0 {
		cfg.CaptureWindow = 48
	}
	if cfg.CaptureWindow < 0 {
		return nil, fmt.Errorf("threat: capture window %d must be >= 0", cfg.CaptureWindow)
	}
	if cfg.FreezeAt == None {
		cfg.FreezeAt = Medium
	}
	if cfg.SynergyWeight == 0 {
		cfg.SynergyWeight = 0.5
	}
	if cfg.SynergyWeight < 0 {
		return nil, fmt.Errorf("threat: synergy weight %v must be >= 0", cfg.SynergyWeight)
	}
	e := &Engine{cfg: cfg, fsm: fsm, base: map[baseKey]*Baseline{}}
	if cfg.Obs != nil {
		reg := cfg.Obs.Registry()
		e.ring = cfg.Obs.Ring(cfg.RingID)
		e.gLevel = reg.Gauge("threat_level")
		e.cEsc = reg.Counter("threat_escalations_total")
		e.cDeesc = reg.Counter("threat_deescalations_total")
		e.cIncident = reg.Counter("threat_incidents_total")
		e.cResponse = reg.Counter("threat_responses_total")
	}
	return e, nil
}

// Level reports the current threat level.
func (e *Engine) Level() Level {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fsm.Level()
}

// Trajectory returns a copy of every level transition so far.
func (e *Engine) Trajectory() []LevelTransition {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]LevelTransition(nil), e.traj...)
}

// Incidents returns a copy of every captured incident record.
func (e *Engine) Incidents() []IncidentRecord {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]IncidentRecord(nil), e.incidents...)
}

// IncidentBytes returns the canonical JSON-lines serialization of every
// incident — the byte string the replay suite compares across runs.
func (e *Engine) IncidentBytes() ([]byte, error) {
	e.mu.Lock()
	records := append([]IncidentRecord(nil), e.incidents...)
	e.mu.Unlock()
	return MarshalIncidents(records)
}

// shardAgg accumulates one shard's per-tick scoring.
type shardAgg struct {
	top, second float64
	topCore     int
}

// Tick feeds one virtual-time step of samples through the engine: score
// against baselines, classify, respond, capture. now must be strictly
// monotonic across calls. The returned transition is non-nil when the
// level changed this tick. Action errors are joined and returned after the
// tick's state (trajectory, incidents) is fully recorded — a failing
// responder never desynchronizes the classifier.
func (e *Engine) Tick(now Tick, samples []Sample) (*LevelTransition, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started && now <= e.last {
		return nil, fmt.Errorf("threat: non-monotonic tick %d after %d", now, e.last)
	}
	e.started = true
	e.last = now

	// Score every sample against its pre-tick baseline.
	readings := make([]SignalReading, len(samples))
	aggs := map[int]*shardAgg{}
	for i, s := range samples {
		if int(s.Signal) >= NumSignals {
			return nil, fmt.Errorf("threat: sample %d has unknown signal %d", i, s.Signal)
		}
		k := baseKey{s.Shard, s.Core, s.Signal}
		b := e.base[k]
		if b == nil {
			b = NewBaseline(e.cfg.Signals[s.Signal].Baseline)
			e.base[k] = b
		}
		score := b.Score(s.Value)
		if abs := e.cfg.Signals[s.Signal].AbsHigh; abs > 0 && s.Value >= abs && score < e.cfg.FSM.Up[High] {
			score = e.cfg.FSM.Up[High]
		}
		readings[i] = SignalReading{
			Shard: s.Shard, Core: s.Core, Signal: s.Signal.String(),
			Value: s.Value, Score: score,
		}
		a := aggs[s.Shard]
		if a == nil {
			a = &shardAgg{topCore: -1}
			aggs[s.Shard] = a
		}
		if score > a.top {
			a.second = a.top
			a.top = score
			a.topCore = s.Core
		} else if score > a.second {
			a.second = score
		}
	}

	// Combine per shard (worst signal plus a synergy bonus for a second
	// elevated signal), then pick the overall worst with a deterministic
	// lowest-shard tie-break.
	shards := make([]int, 0, len(aggs))
	for id := range aggs {
		shards = append(shards, id)
	}
	sort.Ints(shards)
	overall, offShard, offCore := 0.0, -1, -1
	for _, id := range shards {
		a := aggs[id]
		combined := a.top
		if a.second >= e.cfg.FSM.Up[Low] {
			combined += e.cfg.SynergyWeight * a.second
		}
		if combined > overall {
			overall, offShard, offCore = combined, id, a.topCore
		}
	}

	from := e.fsm.Level()
	level, changed := e.fsm.Step(now, overall)

	// Fold samples into baselines unless the post-step level freezes them:
	// an escalating tick must not absorb its own attack evidence.
	if level < e.cfg.FreezeAt {
		for _, s := range samples {
			e.base[baseKey{s.Shard, s.Core, s.Signal}].Observe(s.Value)
		}
	}

	if !changed {
		return nil, nil
	}

	tr := LevelTransition{
		Tick: uint64(now), From: from, To: level, Score: overall,
		Shard: offShard, Core: offCore,
	}
	var actionErrs []error
	if level > from {
		// Escalation: sweep the policy of every level entered, first
		// occurrence of each action wins (a multi-level jump must not
		// tighten the same shard twice).
		fired := [NumActions]bool{}
		var acts []Action
		for l := from + 1; l <= level; l++ {
			for _, a := range e.cfg.Policy.For(l) {
				if !fired[a] {
					fired[a] = true
					acts = append(acts, a)
				}
			}
		}
		for _, a := range acts {
			tr.Actions = append(tr.Actions, a.String())
		}

		// Forensic capture happens before any response fires, so the
		// event window is strictly pre-trigger.
		if level >= e.cfg.CaptureAt {
			e.capture(&tr, readings)
		}

		if e.cfg.Responder != nil {
			for _, a := range acts {
				if err := e.fire(a, offShard, offCore); err != nil {
					actionErrs = append(actionErrs, fmt.Errorf("%s: %w", a, err))
				} else {
					e.cResponse.Inc()
					e.ring.Emit(obs.EvThreatResponse, 0, uint64(a))
				}
			}
		}
		e.cEsc.Inc()
	} else {
		if e.cfg.Responder != nil {
			if err := e.cfg.Responder.Relax(level); err != nil {
				actionErrs = append(actionErrs, fmt.Errorf("relax: %w", err))
			}
		}
		e.cDeesc.Inc()
	}

	e.traj = append(e.traj, tr)
	e.gLevel.Set(float64(level))
	e.ring.Emit(obs.EvThreatLevel, 0, uint64(from)<<32|uint64(level))
	return &tr, errors.Join(actionErrs...)
}

// capture builds one incident record from the transition about to be
// returned and the trigger tick's readings. Called with e.mu held, before
// any response action fires.
func (e *Engine) capture(tr *LevelTransition, readings []SignalReading) {
	rec := IncidentRecord{
		ID: uint64(len(e.incidents) + 1), Tick: tr.Tick,
		From: tr.From, To: tr.To, Score: tr.Score,
		Shard: tr.Shard, Core: tr.Core,
		Readings: append([]SignalReading(nil), readings...),
		Events:   captureEvents(e.cfg.Forensics, e.cfg.CaptureWindow),
		Actions:  append([]string(nil), tr.Actions...),
	}
	if e.cfg.StatsFn != nil {
		cur := e.cfg.StatsFn()
		delta := map[string]uint64{}
		for k, v := range cur {
			if prev := e.lastStats[k]; v > prev {
				delta[k] = v - prev
			}
		}
		if len(delta) > 0 {
			rec.StatsDelta = delta
		}
		e.lastStats = cur
	}
	e.incidents = append(e.incidents, rec)
	e.cIncident.Inc()
	e.ring.Emit(obs.EvIncident, 0, rec.ID)
}

// fire dispatches one action to the responder.
func (e *Engine) fire(a Action, shard, core int) error {
	r := e.cfg.Responder
	switch a {
	case ActTightenAdmission:
		return r.TightenAdmission(shard)
	case ActIsolateCore:
		if core < 0 {
			// The offending signal was shard-scoped; there is no specific
			// core to isolate. Not an error — the shard-level responses
			// carry the load.
			return nil
		}
		return r.IsolateCore(shard, core)
	case ActRehashShard:
		return r.RehashShard(shard)
	case ActZeroizeStaged:
		return r.ZeroizeStaged()
	case ActLockdown:
		return r.Lockdown()
	}
	return fmt.Errorf("threat: unknown action %d", a)
}
