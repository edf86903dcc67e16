package npu

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"sdmmon/internal/apps"
	"sdmmon/internal/mhash"
	"sdmmon/internal/monitor"
	"sdmmon/internal/obs"
	"sdmmon/internal/packet"
)

// Throughput harness shared by `cmd/npsim -bench` and the top-level
// BenchmarkNPThroughput. Both emit the same machine-readable BENCH_npu.json
// so future PRs have a perf trajectory to compare against.

// ThroughputConfig describes one measurement point.
type ThroughputConfig struct {
	App         string // application name; "" selects ipv4cm
	Cores       int
	Batch       int   // packets per ProcessBatch call
	Packets     int   // total packets to time (rounded up to whole batches)
	Reference   bool  // pre-optimization path (map NFA + uncached hash unit)
	Seed        int64 // traffic and hash-parameter seed
	OptionWords int   // IP option words in benign traffic
	// QuarantineCores removes the first N cores from dispatch before the
	// timed region — the degraded-mode throughput point (graceful
	// degradation after the supervisor isolates faulty cores).
	QuarantineCores int
	// Instrumented attaches a live telemetry collector (counters, per-core
	// cycle histograms, event rings) for the timed region — the
	// observability-overhead point, to be compared against the bare point
	// of the same shape.
	Instrumented bool
}

// BenchPoint is one measured sweep point of the throughput harness.
type BenchPoint struct {
	Path string `json:"path"` // "fast", "reference" or "shard"
	// Cores is the per-NP core count (per-shard on the "shard" path).
	Cores int `json:"cores"`
	// Shards > 0 marks a sharded-plane point measured across that many NPs.
	Shards          int     `json:"shards,omitempty"`
	Batch           int     `json:"batch"`
	Packets         uint64  `json:"packets"`
	WallSeconds     float64 `json:"wall_seconds"`
	PktsPerSec      float64 `json:"pkts_per_sec"`
	NsPerPkt        float64 `json:"ns_per_pkt"`
	SimCyclesPerPkt float64 `json:"sim_cycles_per_pkt"`
	// SimAggPktsPerSec is the simulated-hardware aggregate throughput of a
	// sharded point: packets divided by the plane's virtual-time makespan
	// (the slowest shard's busy cycles over its core count, at the modeled
	// clock). Wall-clock throughput on the simulation host cannot show
	// line-card scaling — the host interleaves every simulated core on the
	// CPUs it has — so the scaling claim is made in virtual time and the
	// wall numbers are reported alongside for honesty.
	SimAggPktsPerSec float64 `json:"sim_agg_pkts_per_sec,omitempty"`
	// P99BatchCycles is the 99th-percentile per-batch simulated cycle cost
	// on a sharded point (batch latency in virtual time).
	P99BatchCycles uint64 `json:"p99_batch_cycles,omitempty"`
	// Submitters > 0 marks an ingress point (path "ingress_ring" or
	// "ingress_mutex"): that many concurrent producers fed one consumer.
	Submitters  int     `json:"submitters,omitempty"`
	HashHitRate float64 `json:"hash_hit_rate"` // 0 on the reference path
	// QuarantinedCores > 0 marks a degraded-mode point: that many cores
	// were quarantined before the timed region.
	QuarantinedCores int `json:"quarantined_cores,omitempty"`
	// Instrumented marks a point measured with a live telemetry collector.
	Instrumented bool `json:"instrumented,omitempty"`
}

// Key identifies the sweep point independent of which path produced it.
func (p BenchPoint) Key() string {
	k := fmt.Sprintf("cores=%d/batch=%d", p.Cores, p.Batch)
	if p.Shards > 0 {
		k = fmt.Sprintf("shards=%d/", p.Shards) + k
	}
	if p.QuarantinedCores > 0 {
		k += fmt.Sprintf("/quarantined=%d", p.QuarantinedCores)
	}
	if p.Instrumented {
		k += "/instrumented"
	}
	if p.Submitters > 0 {
		k += fmt.Sprintf("/submitters=%d", p.Submitters)
	}
	return k
}

// bareKey is the key of the uninstrumented point of the same shape.
func (p BenchPoint) bareKey() string {
	bare := p
	bare.Instrumented = false
	return bare.Key()
}

// BenchReport is the BENCH_npu.json document.
type BenchReport struct {
	App        string       `json:"app"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Source     string       `json:"source"`
	Points     []BenchPoint `json:"points"`
	// SpeedupFastVsReference maps a sweep-point key to fast-path pps divided
	// by reference-path pps, for every point measured on both paths.
	SpeedupFastVsReference map[string]float64 `json:"speedup_fast_vs_reference,omitempty"`
	// OverheadInstrumented maps a sweep-point key to bare-path ns/pkt
	// divided by instrumented ns/pkt inverse — i.e. instrumented time over
	// bare time — for every shape measured both ways. 1.03 = 3% slower with
	// telemetry on.
	OverheadInstrumented map[string]float64 `json:"overhead_instrumented,omitempty"`
	// ShardScaling maps a sharded point's key to its simulated aggregate
	// throughput divided by the 1-shard point of the same per-shard shape —
	// the line-card scaling curve.
	ShardScaling map[string]float64 `json:"shard_scaling,omitempty"`
	// IngressFast maps an ingress point's key to ring-ingress pps divided
	// by mutex-queue pps of the same shape (batch, submitters) — the
	// speedup of the lock-free hand-off over the pre-ring implementation.
	IngressFast map[string]float64 `json:"ingress_fast,omitempty"`
	// FleetRollout maps "routers=N/loss=P%" to one complete control-plane
	// rotation rollout at that scale and management-link loss rate, in
	// virtual link-seconds (measured by internal/fleet; Write leaves the
	// series untouched — only the derived ratio maps are recomputed).
	FleetRollout map[string]FleetRolloutPoint `json:"fleet_rollout,omitempty"`
	// CampaignDetection maps an attack-campaign family name to its
	// detection-latency distribution over a seed sweep (measured by
	// internal/campaign; Write leaves the series untouched). Latencies are
	// in packets admitted before the classifier reached the family's
	// detection level — the adversarial-robustness trajectory the bench
	// document carries so future PRs can see detection regress.
	CampaignDetection map[string]CampaignDetectionPoint `json:"campaign_detection,omitempty"`
	// TenantIsolation maps "tenants=N" to a per-tenant throughput
	// measurement on a partitioned plane (measured by internal/tenant;
	// Write recomputes only the derived MinVsBaseline ratios). Each tenant
	// owns the same core count at every N, so ideal isolation keeps the
	// slowest tenant's throughput at the tenants=1 baseline instead of
	// dividing it by N.
	TenantIsolation map[string]TenantIsolationPoint `json:"tenant_isolation,omitempty"`
}

// FleetRolloutPoint is one fleet_rollout series entry. The fields mirror
// fleet.RolloutMeasurement (internal/fleet depends on this package, so the
// bench document declares its own shape).
type FleetRolloutPoint struct {
	Routers           int     `json:"routers"`
	Groups            int     `json:"groups"`
	DropRate          float64 `json:"drop_rate"`
	MakespanSeconds   float64 `json:"makespan_seconds"`
	TotalAttempts     uint64  `json:"total_attempts"`
	AttemptsPerRouter float64 `json:"attempts_per_router"`
}

// CampaignDetectionPoint is one campaign_detection series entry. The
// fields mirror campaign.DetectionDistribution (internal/campaign depends
// on this package, so the bench document declares its own shape).
type CampaignDetectionPoint struct {
	Family           string  `json:"family"`
	Runs             int     `json:"runs"`
	Detected         int     `json:"detected"`
	P50              int64   `json:"p50"`
	P99              int64   `json:"p99"`
	Min              int64   `json:"min"`
	Max              int64   `json:"max"`
	MeanEvasionDepth float64 `json:"mean_evasion_depth"`
}

// TenantIsolationPoint is one tenant_isolation series entry. The fields
// mirror tenant.IsolationPoint (internal/tenant depends on this package,
// so the bench document declares its own shape).
type TenantIsolationPoint struct {
	Tenants          int       `json:"tenants"`
	Shards           int       `json:"shards"`
	CoresPerTenant   int       `json:"cores_per_tenant"`
	PacketsPerTenant uint64    `json:"packets_per_tenant"`
	PerTenant        []float64 `json:"per_tenant_pkts_per_sec"`
	MinPktsPerSec    float64   `json:"min_pkts_per_sec"`
	AggPktsPerSec    float64   `json:"agg_pkts_per_sec"`
	// MinVsBaseline is this point's MinPktsPerSec over the tenants=1
	// point's, recomputed by Write; ~1.0 means adding tenants cost the
	// slowest tenant nothing.
	MinVsBaseline float64 `json:"min_vs_baseline,omitempty"`
}

// Add records a point, replacing any earlier measurement of the same
// (path, cores, batch) — benchmark frameworks re-run sub-benchmarks with
// growing iteration counts and only the last (longest) run should stick.
func (r *BenchReport) Add(p BenchPoint) {
	for i := range r.Points {
		if r.Points[i].Path == p.Path && r.Points[i].Key() == p.Key() {
			r.Points[i] = p
			return
		}
	}
	r.Points = append(r.Points, p)
}

// Write recomputes the speedup table and writes the report as indented JSON.
func (r *BenchReport) Write(path string) error {
	fast := make(map[string]float64)
	ref := make(map[string]float64)
	for _, p := range r.Points {
		if p.Path == "reference" {
			ref[p.Key()] = p.PktsPerSec
		} else {
			fast[p.Key()] = p.PktsPerSec
		}
	}
	r.SpeedupFastVsReference = nil
	for k, f := range fast {
		if rp, ok := ref[k]; ok && rp > 0 {
			if r.SpeedupFastVsReference == nil {
				r.SpeedupFastVsReference = make(map[string]float64)
			}
			r.SpeedupFastVsReference[k] = f / rp
		}
	}
	// Instrumented-vs-bare delta for every shape measured both ways (same
	// path, same cores/batch, one with a live collector).
	bare := make(map[string]float64)
	for _, p := range r.Points {
		if !p.Instrumented {
			bare[p.Path+"/"+p.Key()] = p.PktsPerSec
		}
	}
	r.OverheadInstrumented = nil
	for _, p := range r.Points {
		if !p.Instrumented || p.PktsPerSec <= 0 {
			continue
		}
		if bp, ok := bare[p.Path+"/"+p.bareKey()]; ok && bp > 0 {
			if r.OverheadInstrumented == nil {
				r.OverheadInstrumented = make(map[string]float64)
			}
			r.OverheadInstrumented[p.Path+"/"+p.bareKey()] = bp / p.PktsPerSec
		}
	}
	// Line-card scaling: every sharded point against the 1-shard point of
	// the same per-shard shape, in simulated aggregate throughput.
	r.ShardScaling = nil
	base := make(map[string]float64)
	for _, p := range r.Points {
		if p.Shards == 1 && p.SimAggPktsPerSec > 0 {
			base[fmt.Sprintf("cores=%d/batch=%d", p.Cores, p.Batch)] = p.SimAggPktsPerSec
		}
	}
	for _, p := range r.Points {
		if p.Shards <= 0 || p.SimAggPktsPerSec <= 0 {
			continue
		}
		if b, ok := base[fmt.Sprintf("cores=%d/batch=%d", p.Cores, p.Batch)]; ok && b > 0 {
			if r.ShardScaling == nil {
				r.ShardScaling = make(map[string]float64)
			}
			r.ShardScaling[p.Key()] = p.SimAggPktsPerSec / b
		}
	}
	// Lock-free ingress vs the mutex-queue baseline, per shape.
	r.IngressFast = nil
	mtx := make(map[string]float64)
	for _, p := range r.Points {
		if p.Path == "ingress_mutex" && p.PktsPerSec > 0 {
			mtx[p.Key()] = p.PktsPerSec
		}
	}
	for _, p := range r.Points {
		if p.Path != "ingress_ring" || p.PktsPerSec <= 0 {
			continue
		}
		if m, ok := mtx[p.Key()]; ok && m > 0 {
			if r.IngressFast == nil {
				r.IngressFast = make(map[string]float64)
			}
			r.IngressFast[p.Key()] = p.PktsPerSec / m
		}
	}
	// Tenant isolation vs the single-tenant baseline of the same shape.
	if base, ok := r.TenantIsolation["tenants=1"]; ok && base.MinPktsPerSec > 0 {
		for k, p := range r.TenantIsolation {
			p.MinVsBaseline = p.MinPktsPerSec / base.MinPktsPerSec
			r.TenantIsolation[k] = p
		}
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadBenchReport reads an existing BENCH document so a partial sweep
// (make bench-ingress) can refresh its own series while every other
// point and pass-through series survives; Write recomputes the derived
// ratio maps from whatever points remain.
func LoadBenchReport(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// NewBenchNP builds an NP with the named application and its monitoring
// graph installed on every core — the standard fixture for throughput runs.
func NewBenchNP(appName string, cores int, reference bool, seed int64) (*NP, error) {
	return NewBenchNPWith(appName, cores, reference, seed, nil)
}

// NewBenchNPWith is NewBenchNP with an optional telemetry collector attached
// (the instrumented-overhead fixture).
func NewBenchNPWith(appName string, cores int, reference bool, seed int64, col *obs.Collector) (*NP, error) {
	if appName == "" {
		appName = "ipv4cm"
	}
	app, err := apps.ByName(appName)
	if err != nil {
		return nil, err
	}
	prog, err := app.Program()
	if err != nil {
		return nil, err
	}
	param := uint32(seed)*2654435761 + 0x600D
	g, err := monitor.Extract(prog, mhash.NewMerkle(param))
	if err != nil {
		return nil, err
	}
	np, err := New(Config{Cores: cores, MonitorsEnabled: true, Reference: reference, Obs: col})
	if err != nil {
		return nil, err
	}
	if err := np.InstallAll(appName, prog.Serialize(), g.Serialize(), param); err != nil {
		return nil, err
	}
	return np, nil
}

// BenchPackets generates a reusable batch of benign traffic.
func BenchPackets(n int, seed int64, optWords int) [][]byte {
	gen := packet.NewGenerator(seed)
	gen.OptionWords = optWords
	pkts := make([][]byte, n)
	for i := range pkts {
		pkts[i] = gen.Next()
	}
	return pkts
}

// HashCacheStats sums the per-core instruction-hash cache counters. Both are
// zero on the Reference path (which has no cache). Like MonitorStats it
// takes each slot lock, so it is safe to call while the NP is processing.
func (np *NP) HashCacheStats() (hits, misses uint64) {
	for _, s := range np.slots {
		s.mu.Lock()
		if pm, ok := s.mon.(*monitor.PackedMonitor); ok && s.loaded {
			h, m := pm.CacheStats()
			hits += h
			misses += m
		}
		s.mu.Unlock()
	}
	return hits, misses
}

// MeasureThroughput runs one sweep point: build the NP, warm one batch, then
// time cfg.Packets packets (rounded up to whole batches) through
// ProcessBatch under wall-clock.
func MeasureThroughput(cfg ThroughputConfig) (BenchPoint, error) {
	if cfg.Cores < 1 || cfg.Batch < 1 {
		return BenchPoint{}, fmt.Errorf("npu: bench needs cores >= 1 and batch >= 1")
	}
	if cfg.Packets < cfg.Batch {
		cfg.Packets = cfg.Batch
	}
	if cfg.QuarantineCores < 0 || cfg.QuarantineCores >= cfg.Cores {
		return BenchPoint{}, fmt.Errorf("npu: bench needs 0 <= quarantined cores < cores")
	}
	var col *obs.Collector
	if cfg.Instrumented {
		col = obs.New(obs.DefaultRingDepth)
	}
	np, err := NewBenchNPWith(cfg.App, cfg.Cores, cfg.Reference, cfg.Seed, col)
	if err != nil {
		return BenchPoint{}, err
	}
	// Degraded mode: knock out the first N cores the way the supervisor
	// would, leaving dispatch to route around them.
	for i := 0; i < cfg.QuarantineCores; i++ {
		if err := np.Quarantine(i); err != nil {
			return BenchPoint{}, err
		}
	}
	optWords := cfg.OptionWords
	if optWords == 0 {
		optWords = 1
	}
	pkts := BenchPackets(cfg.Batch, cfg.Seed+1, optWords)
	// Warm-up: populate the hash caches and size the batch arena, so the
	// timed region measures the allocation-free steady state.
	if _, err := np.ProcessBatch(pkts, 0); err != nil {
		return BenchPoint{}, err
	}
	before := np.Stats()
	hitsBefore, missesBefore := np.HashCacheStats()
	rounds := (cfg.Packets + cfg.Batch - 1) / cfg.Batch
	start := time.Now()
	for r := 0; r < rounds; r++ {
		if _, err := np.ProcessBatch(pkts, 0); err != nil {
			return BenchPoint{}, err
		}
	}
	wall := time.Since(start).Seconds()
	after := np.Stats()
	hits, misses := np.HashCacheStats()
	hits -= hitsBefore
	misses -= missesBefore

	p := BenchPoint{
		Cores:            cfg.Cores,
		Batch:            cfg.Batch,
		Packets:          after.Processed - before.Processed,
		WallSeconds:      wall,
		QuarantinedCores: cfg.QuarantineCores,
		Instrumented:     cfg.Instrumented,
	}
	if cfg.Reference {
		p.Path = "reference"
	} else {
		p.Path = "fast"
	}
	if wall > 0 {
		p.PktsPerSec = float64(p.Packets) / wall
		p.NsPerPkt = wall * 1e9 / float64(p.Packets)
	}
	if p.Packets > 0 {
		p.SimCyclesPerPkt = float64(after.Cycles-before.Cycles) / float64(p.Packets)
	}
	if total := hits + misses; total > 0 {
		p.HashHitRate = float64(hits) / float64(total)
	}
	return p, nil
}

// NewBenchReport builds an empty report stamped with the runtime shape.
func NewBenchReport(app, source string) *BenchReport {
	if app == "" {
		app = "ipv4cm"
	}
	return &BenchReport{App: app, GOMAXPROCS: runtime.GOMAXPROCS(0), Source: source}
}
