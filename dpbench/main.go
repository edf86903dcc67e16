// Command dpbench is SDMMon's data-plane benchmark. It drives one seeded
// workload through the real concurrent shard.Plane, checks every verdict
// and prints the end-to-end metrics; with -trace 1 it instead times calls
// into each layer's public functions on the same inputs and prints the
// per-layer ledger. See README.md for the workloads and metrics.
//
// Run it from the repository root:
//
//	bash dpbench/run.sh --workload ipv4cm_fwd --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"
)

// setupReps is how many times an end-to-end run brings a plane up;
// setup_s is the median.
const setupReps = 60

// config is one run's settings.
type config struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	// Planted faults, for the self-tests only.
	monitorsOff bool
	withhold    bool
	// spanDir receives the traced run's spans ("" skips writing them).
	spanDir string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: ipv4cm_fwd, attack_rekey or tenant_small")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 25, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end run")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: dpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, spanDir: ".bench_build/spans"}
	// A run takes --seconds plus a few seconds of set-up; a wedged plane
	// must not hold the caller forever.
	limit := 2*time.Duration(*seconds*float64(time.Second)) + 90*time.Second
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "dpbench: run did not finish within %v\n", limit)
		os.Exit(1)
	})
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dpbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// plan is how a run spends its seconds. An end-to-end run repeats, on
// each of setupReps freshly set-up planes, a saturated segment, a burst
// segment and (for the workloads without live re-keys) a re-key segment.
// A traced run sets up once and alternates traced and untraced windows.
type plan struct {
	reps              int           // set-ups
	sat, burst, rekey time.Duration // per set-up (end-to-end run)
	traced, layers    time.Duration // traced run
	perRep            int           // re-key packages per set-up
}

func newPlan(cfg config) plan {
	sec := func(f float64) time.Duration { return time.Duration(f * cfg.seconds * float64(time.Second)) }
	p := plan{reps: 1}
	if cfg.trace {
		p.traced, p.layers = sec(0.5), sec(0.3)
		if cfg.w.liveRekey {
			p.perRep = int(p.traced/rekeyCadence) + 2
		}
		return p
	}
	p.reps = setupReps
	per := func(f float64) time.Duration { return sec(f) / setupReps }
	p.sat, p.burst, p.rekey = per(0.6), per(0.25), per(0.15)
	p.perRep = int(p.rekey/rekeyPhaseCadence) + 2
	if cfg.w.liveRekey {
		p.sat, p.rekey = per(0.75), 0
		p.perRep = int(p.sat/rekeyCadence) + 2
	}
	return p
}

// run performs one benchmark run and reports to log. An error means the
// run could not be carried out; a run whose checks fail returns a result
// with Correct false.
func run(cfg config, log io.Writer) (*result, error) {
	w := cfg.w
	hb, _ := json.Marshal(readHost())
	fmt.Fprintf(log, "host %s\n", hb)
	tick0, steal0 := cpuTicks()

	in, err := generate(w, cfg.seed)
	if err != nil {
		return nil, err
	}
	for _, a := range append(tenantApps, fwdApp) {
		if _, err := a.Program(); err != nil {
			return nil, err
		}
	}
	p := newPlan(cfg)
	r := &rig{w: w, in: in, monitors: !cfg.monitorsOff}
	if !w.tenanted {
		if err := manufacture(r, p.reps, p.perRep); err != nil {
			return nil, fmt.Errorf("manufacture: %w", err)
		}
	}
	fails := runOracle(w, in, r.monitors)

	var tally outcome
	var m map[string]metric
	if cfg.trace {
		m, err = traced(cfg, p, r, &tally, log)
	} else {
		m, err = endToEnd(cfg, p, r, &tally, log)
	}
	if err != nil {
		return nil, err
	}
	fails = append(fails, tally.fails...)
	tick1, steal1 := cpuTicks()
	stealFrac := 0.0
	if tick1 > tick0 {
		stealFrac = float64(steal1-steal0) / float64(tick1-tick0)
	}
	if cfg.trace {
		m["host.steal_frac"] = metric{stealFrac, "ratio"}
	}
	fmt.Fprintf(log, "workload %s seed %d: sent %d (%d attacks), host steal %.3f\n",
		w.name, cfg.seed, tally.sent, tally.attacks, stealFrac)
	for _, f := range fails {
		fmt.Fprintln(log, "FAIL", f)
	}
	res := &result{Correct: len(fails) == 0, Attempted: tally.sent, Metrics: m}
	if !res.Correct {
		res.Failed = tally.sent
	}
	return res, nil
}

// outcome accumulates what every plane of a run was sent and every check
// that failed.
type outcome struct {
	sent, attacks uint64
	fails         []string
}

// retire closes a plane after its last phase and checks it.
func (o *outcome) retire(r *rig, g *gen, label string) {
	if err := g.quiesce(); err != nil {
		o.fails = append(o.fails, label+err.Error())
	}
	r.plane.Close()
	for _, f := range checkPlane(r.plane.Stats(), g) {
		o.fails = append(o.fails, label+f)
	}
	o.sent += g.sent
	o.attacks += g.attacks
}

// Unmeasured traffic fills caches, arenas and buffer pools on a fresh
// plane; the process's first plane also settles the heap.
const (
	firstWarmup = 300 * time.Millisecond
	warmup      = 20 * time.Millisecond
)

// endToEnd measures the end-to-end metrics over p.reps fresh planes.
// Each set-up allocates the program's per-core state anew, so the run
// averages over memory layouts as well as over time.
func endToEnd(cfg config, p plan, r *rig, o *outcome, log io.Writer) (map[string]metric, error) {
	var setups, lat, rekeyMs, repPPS, rss []float64
	var verdicts uint64
	var satSecs float64
	var cpuNs int64
	var peak float64 // this set-up's peak resident set
	sampleRSS := func() { peak = math.Max(peak, rssMiB()) }
	rekeys := func(k *rekeyer, label string) {
		durs, err := k.finish()
		rekeyMs = append(rekeyMs, durs...)
		if err != nil {
			o.fails = append(o.fails, fmt.Sprintf("%sre-key: %v", label, err))
		}
	}
	// Return the oracle's garbage to the OS so the resident set sampled
	// below is the data plane's.
	debug.FreeOSMemory()
	for rep := 0; rep < p.reps; rep++ {
		label := fmt.Sprintf("set-up %d: ", rep)
		// Collect the previous plane's garbage outside the timed set-up.
		runtime.GC()
		d, err := r.setup(rep)
		if err != nil {
			return nil, fmt.Errorf("%s%w", label, err)
		}
		setups = append(setups, d.Seconds())
		peak = 0
		g := &gen{plane: r.plane, in: r.in, withhold: cfg.withhold && rep == 0}
		if rep == 0 {
			g.saturate(firstWarmup, nil)
		} else {
			g.saturate(warmup, nil)
		}
		var k *rekeyer
		if cfg.w.liveRekey {
			k = startRekeyer(r, rekeyCadence)
		}
		v0, s0 := verdicts, satSecs
		g.saturate(p.sat, func(s windowSample) {
			verdicts += s.n
			satSecs += s.secs
			cpuNs += s.cpuNs
			sampleRSS()
		})
		repPPS = append(repPPS, float64(verdicts-v0)/(satSecs-s0))
		if k != nil {
			rekeys(k, label)
		}
		if err := g.quiesce(); err != nil {
			o.fails = append(o.fails, label+err.Error())
		}
		l, err := g.burst(p.burst)
		if err != nil {
			o.fails = append(o.fails, label+err.Error())
		}
		lat = append(lat, l...)
		sampleRSS()
		if p.rekey > 0 {
			k = startRekeyer(r, rekeyPhaseCadence)
			g.saturate(p.rekey, func(windowSample) { sampleRSS() })
			rekeys(k, label)
		}
		o.retire(r, g, label)
		rss = append(rss, peak)
	}
	m := map[string]metric{
		"setup_s":        {median(setups), "s"},
		"pps":            {float64(verdicts) / satSecs, "pkt/s"},
		"cpu_ns_per_pkt": {float64(cpuNs) / float64(verdicts), "ns"},
		"burst_p50_us":   {quantile(lat, 0.5), "us"},
		"burst_p90_us":   {quantile(lat, 0.9), "us"},
		"rss_mb":         {median(rss), "MiB"},
		"rekey_ms":       {median(rekeyMs), "ms"},
	}
	fmt.Fprintf(log, "%d set-ups: saturated %v, burst %v, re-key %v each\n", p.reps, p.sat, p.burst, p.rekey)
	fmt.Fprintf(log, "saturated pkt/s per set-up: min %.0f, quartiles %.0f %.0f %.0f, max %.0f\n",
		quantile(repPPS, 0), quantile(repPPS, 0.25), median(repPPS), quantile(repPPS, 0.75), quantile(repPPS, 1))
	fmt.Fprintf(log, "bursts: %d, p99 %.1f us; re-keys: %d\n", len(lat), quantile(lat, 0.99), len(rekeyMs))
	printMetrics(log, m)
	return m, nil
}

// traced sets up one plane, alternates untraced and traced saturated
// windows on it, then runs the per-layer replays, and returns the
// per-layer metrics.
func traced(cfg config, p plan, r *rig, o *outcome, log io.Writer) (map[string]metric, error) {
	if _, err := r.setup(0); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	g := &gen{plane: r.plane, in: r.in, withhold: cfg.withhold}
	g.saturate(firstWarmup, nil)
	var k *rekeyer
	if cfg.w.liveRekey {
		k = startRekeyer(r, rekeyCadence)
	}
	tr := newTracer()
	g.parent = tr.begin("saturate", rootSpan)
	// Windows alternate untraced and traced; allocation and GC are read
	// over the untraced ones only.
	var plain, spanned []windowSample
	var alloc allocMeter
	alloc.start(g)
	g.saturate(p.traced, func(s windowSample) {
		if g.spans == nil {
			alloc.stop(g, s)
			plain = append(plain, s)
			g.spans = tr
		} else {
			spanned = append(spanned, s)
			g.spans = nil
			alloc.start(g)
		}
	})
	g.spans = nil
	tr.end(g.parent, int64(g.sent))
	if k != nil {
		if _, err := k.finish(); err != nil {
			o.fails = append(o.fails, fmt.Sprintf("re-key: %v", err))
		}
	}
	if err := g.quiesce(); err != nil {
		o.fails = append(o.fails, err.Error())
	}
	statsBytes := statsAllocBytes(g)
	o.retire(r, g, "")
	ps := r.plane.Stats()

	layers, err := layerRun(tr, cfg.w, r.in, r.monitors, p.layers)
	if err != nil {
		return nil, fmt.Errorf("layer run: %w", err)
	}
	var processed, batches, failed uint64
	maxDepth := 0
	for _, s := range ps.Shards {
		processed += s.Processed
		batches += s.Batches
		failed += s.TailDrops + s.Starved + s.Rejected
		maxDepth = max(maxDepth, s.MaxDepth)
	}
	maxPos := 0
	for _, np := range r.nps {
		for c := 0; c < np.Cores(); c++ {
			if _, _, mp, err := np.MonitorStats(c); err == nil {
				maxPos = max(maxPos, mp)
			}
		}
	}
	hits, misses := r.hashCache()
	rate := func(ws []windowSample) (pps, cpu float64) {
		var n uint64
		var secs float64
		var ns int64
		for _, s := range ws {
			n, secs, ns = n+s.n, secs+s.secs, ns+s.cpuNs
		}
		return float64(n) / secs, float64(ns) / float64(n)
	}
	plainPPS, plainCPU := rate(plain)
	tracedPPS, tracedCPU := rate(spanned)
	submit := tr.totals()["shard.submit"].perItem()
	layers["shard.submit_ns_per_pkt"] = submit
	layers["shard.pkts_per_drain"] = float64(processed) / math.Max(1, float64(batches))
	layers["shard.max_depth"] = float64(maxDepth)
	layers["shard.failed_pkts"] = float64(failed)
	layers["monitor.max_positions"] = float64(maxPos)
	layers["mhash.hit_ratio"] = float64(hits) / math.Max(1, float64(hits+misses))
	layers["go.alloc_bytes_per_pkt"] = alloc.bytesPerPkt(statsBytes)
	layers["go.gc_cpu_frac"] = alloc.gcFrac()
	layers["ledger.coverage"] = (submit + layers["npu.batch_ns_per_pkt"]) / tracedCPU
	layers["trace.overhead"] = tracedPPS / plainPPS
	fmt.Fprintf(log, "saturated: untraced %.0f pkt/s %.0f ns/pkt CPU, traced %.0f pkt/s %.0f ns/pkt CPU\n",
		plainPPS, plainCPU, tracedPPS, tracedCPU)
	printLedger(log, layers, tracedCPU)
	m := map[string]metric{}
	for name, v := range layers {
		m[name] = metric{v, layerUnits[name]}
	}
	if cfg.spanDir != "" {
		path, err := tr.write(cfg.spanDir, cfg.w.name+".json")
		if err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(log, "spans: %d written to %s\n", len(tr.spans), path)
	}
	return m, nil
}

// allocMeter accumulates heap allocation, verdicts and GC CPU over the
// windows between start and stop.
type allocMeter struct {
	alloc0, allocBytes uint64
	verdicts           uint64
	stats0, stats      int
	gc0, cpu0          float64
	gcSec, cpuSec      float64
}

var gcSamples = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}

func readGC() (gc, total float64) {
	metrics.Read(gcSamples)
	for i, s := range gcSamples {
		v := 0.0
		if s.Value.Kind() == metrics.KindFloat64 {
			v = s.Value.Float64()
		}
		if i == 0 {
			gc = v
		} else {
			total = v
		}
	}
	return gc, total
}

func (a *allocMeter) start(g *gen) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	a.alloc0 = ms.TotalAlloc
	a.gc0, a.cpu0 = readGC()
	a.stats0 = g.stats
}

// stop closes window s. The generator's Plane.Stats calls are counted so
// their allocations can be taken out: they are the benchmark's own.
func (a *allocMeter) stop(g *gen, s windowSample) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc, total := readGC()
	a.allocBytes += ms.TotalAlloc - a.alloc0
	a.gcSec += gc - a.gc0
	a.cpuSec += total - a.cpu0
	a.verdicts += s.n
	a.stats += g.stats - a.stats0
}

func (a *allocMeter) bytesPerPkt(statsBytes float64) float64 {
	if a.verdicts == 0 {
		return 0
	}
	return (float64(a.allocBytes) - float64(a.stats)*statsBytes) / float64(a.verdicts)
}

func (a *allocMeter) gcFrac() float64 {
	if a.cpuSec <= 0 {
		return 0
	}
	return a.gcSec / a.cpuSec
}

// statsAllocBytes measures the heap bytes one Plane.Stats call allocates.
func statsAllocBytes(g *gen) float64 {
	const calls = 1000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		g.plane.Stats()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / calls
}

func printMetrics(log io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "  %-24s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}
