// Command npsim runs the multicore network-processor simulator under
// synthetic traffic with optional interleaved data-plane attacks, and
// reports throughput and detection statistics. It bypasses the secure
// installation path (use cmd/sdmmon for the full lifecycle).
//
//	npsim -app ipv4cm -cores 4 -packets 20000 -attacks 20 -monitors=true
//
// Telemetry: -metrics writes a snapshot of every counter/gauge/histogram on
// exit (Prometheus text for a .prom path, JSON otherwise), -trace writes the
// structured alarm/recovery/install event log as JSON lines, and -pprof
// serves net/http/pprof while the simulation runs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"

	"sdmmon/internal/apps"
	"sdmmon/internal/attack"
	"sdmmon/internal/campaign"
	"sdmmon/internal/fleet"
	"sdmmon/internal/mhash"
	"sdmmon/internal/monitor"
	"sdmmon/internal/npu"
	"sdmmon/internal/obs"
	"sdmmon/internal/packet"
	"sdmmon/internal/shard"
)

func main() {
	appName := flag.String("app", "ipv4cm", "application (see sdmmon apps)")
	cores := flag.Int("cores", 4, "NP cores")
	packets := flag.Int("packets", 10000, "benign packets")
	attacks := flag.Int("attacks", 0, "interleaved attack packets")
	monitors := flag.Bool("monitors", true, "hardware monitors enabled")
	qdepth := flag.Int("qdepth", 0, "simulated output queue depth")
	optWords := flag.Int("optwords", 1, "IP option words in benign traffic")
	seed := flag.Int64("seed", 1, "seed for traffic and hash parameter")
	clockMHz := flag.Float64("clock", 100, "core clock in MHz for throughput reporting")
	forensic := flag.Int("forensic", 0, "forensic trace depth; dumps the instruction trace of the first alarm")
	bench := flag.Bool("bench", false, "run the throughput sweep (1/2/4/8 cores x batch sizes, fast vs reference) and write -benchout")
	benchIngress := flag.Bool("benchingress", false, "re-measure only the ingress hand-off points (ring vs mutex x submitters), merging into an existing -benchout")
	benchTenant := flag.Bool("benchtenant", false, "re-measure only the tenant_isolation series (per-tenant pkts/sec at 1/2/4 tenants), merging into an existing -benchout")
	benchOut := flag.String("benchout", "BENCH_npu.json", "output file for -bench")
	benchPackets := flag.Int("benchpackets", 20000, "packets per sweep point in -bench mode")
	faults := flag.String("faults", "", "fault-injection scenario: bitflip, hashflip, hang, spurious, graph, link, or all")
	rollout := flag.String("rollout", "", "live-upgrade scenario: clean, badcanary, lossy, or all")
	routers := flag.Int("routers", 4, "fleet size for -rollout and -fleet (the fleet drills enforce a minimum of 64)")
	fleetDrill := flag.String("fleet", "", "hierarchical control-plane drill: clean, partition, badwave, or all")
	load := flag.Bool("load", false, "run the sharded traffic plane under overload (see -shards)")
	shards := flag.Int("shards", 4, "line-card shards for -load")
	threatDrill := flag.String("threat", "", "graded threat-response drill: burst, ramp, drip, or all (self-asserting; replayed twice through the wire codec)")
	campaignDrill := flag.String("campaign", "", "adversarial campaign drill: gadget, collision, slowdrip, noc, poison, or all (self-asserting; replayed twice through the wire codec, plus the fleet evasion drill with all)")
	tenantDrill := flag.Bool("tenant", false, "run the self-asserting two-tenant isolation drill (gadget + noc at one tenant; bystander byte-identical to a no-attack control)")
	incidentsOut := flag.String("incidents", "", "write captured incident records as JSON lines (with -threat)")
	metricsOut := &pathFlag{def: "npsim_metrics.json"}
	flag.Var(metricsOut, "metrics", "write a metrics snapshot on exit; bare -metrics selects npsim_metrics.json, -metrics=FILE a path (.prom = Prometheus text, otherwise JSON)")
	traceOut := flag.String("trace", "", "write the structured event trace as JSON lines on exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()
	if flag.NArg() > 0 {
		// npsim takes no positional arguments. Rejecting them loudly keeps
		// the pre-bool-or-path `-metrics FILE` spelling from silently
		// writing to the default path while FILE is ignored.
		fmt.Fprintf(os.Stderr, "npsim: unexpected argument %q (path-taking flags use -flag=value, e.g. -metrics=out.json)\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	var col *obs.Collector
	if metricsOut.path != "" || *traceOut != "" || *pprofAddr != "" {
		col = obs.New(obs.DefaultRingDepth)
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "npsim: pprof:", err)
			}
		}()
	}

	var err error
	switch {
	case *fleetDrill != "":
		err = runFleet(*fleetDrill, *routers, *seed)
	case *rollout != "":
		err = runRollout(*rollout, *routers, *cores, *seed, col)
	case *faults != "":
		err = runFaults(*faults, *appName, *cores, *seed, col)
	case *campaignDrill != "":
		err = runCampaign(*campaignDrill, *seed)
	case *threatDrill != "":
		err = runThreat(*threatDrill, *seed, *incidentsOut)
	case *tenantDrill:
		err = runTenantDrill(*seed)
	case *load:
		err = runLoad(*appName, *shards, *cores, *packets, *seed, *clockMHz, col)
	case *benchIngress:
		err = runBenchIngress(*appName, *seed, *benchOut)
	case *benchTenant:
		err = runBenchTenant(*appName, *benchPackets, *seed, *benchOut)
	case *bench:
		err = runBench(*appName, *benchPackets, *optWords, *seed, *benchOut)
	default:
		err = run(*appName, *cores, *packets, *attacks, *monitors, *qdepth, *optWords, *seed, *clockMHz, *forensic, col)
	}
	// Telemetry is written even when the scenario failed: the snapshot of a
	// failing run is exactly what a post-mortem needs.
	if werr := writeTelemetry(col, metricsOut.path, *traceOut); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		var se *scenarioError
		if errors.As(err, &se) {
			fmt.Fprintf(os.Stderr, "npsim: FAIL mode=%s scenario=%s: %v\n", se.Mode, se.Scenario, se.Err)
		} else {
			fmt.Fprintln(os.Stderr, "npsim:", err)
		}
		os.Exit(1)
	}
}

// pathFlag is a bool-or-path flag: bare `-metrics` selects the default
// path, `-metrics=FILE` a caller-chosen one. Because the flag package
// treats bool-style flags as value-less, the FILE form must use `=` (a
// space-separated path would be read as a positional argument).
type pathFlag struct {
	path string
	def  string
}

func (f *pathFlag) String() string { return f.path }

func (f *pathFlag) Set(s string) error {
	switch s {
	case "true": // bare -metrics
		f.path = f.def
	case "false": // -metrics=false
		f.path = ""
	default:
		f.path = s
	}
	return nil
}

// IsBoolFlag lets the flag appear with no value.
func (f *pathFlag) IsBoolFlag() bool { return true }

// scenarioError is a structured scenario failure: which mode (faults or
// rollout) and which scenario failed, and why. main renders it as a single
// machine-greppable "npsim: FAIL mode=… scenario=…" line and exits non-zero.
type scenarioError struct {
	Mode     string
	Scenario string
	Err      error
}

func (e *scenarioError) Error() string {
	return fmt.Sprintf("%s scenario %q failed: %v", e.Mode, e.Scenario, e.Err)
}

func (e *scenarioError) Unwrap() error { return e.Err }

// writeTelemetry flushes the collector to the requested output files.
func writeTelemetry(col *obs.Collector, metricsPath, tracePath string) error {
	if col == nil {
		return nil
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		snap := col.Snapshot()
		if strings.HasSuffix(metricsPath, ".prom") {
			err = snap.WritePrometheus(f)
		} else {
			err = snap.WriteJSON(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing metrics to %s: %w", metricsPath, err)
		}
		fmt.Printf("wrote metrics snapshot to %s\n", metricsPath)
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		events := col.Events()
		err = obs.WriteTrace(f, events)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing trace to %s: %w", tracePath, err)
		}
		dropped := ""
		if n := col.DroppedEvents(); n > 0 {
			dropped = fmt.Sprintf(" (%d dropped at the rings)", n)
		}
		fmt.Printf("wrote %d trace events to %s%s\n", len(events), tracePath, dropped)
	}
	return nil
}

// runBench sweeps core counts and batch sizes over both monitoring paths and
// writes the machine-readable BENCH_npu.json baseline.
func runBench(appName string, packets, optWords int, seed int64, out string) error {
	report := npu.NewBenchReport(appName, "npsim -bench")
	fmt.Printf("npsim bench: %s, %d packets/point, GOMAXPROCS=%d\n",
		report.App, packets, report.GOMAXPROCS)
	fmt.Printf("%-10s %6s %6s %14s %10s %12s %9s\n",
		"path", "cores", "batch", "pkts/sec", "ns/pkt", "simcyc/pkt", "hit-rate")
	for _, reference := range []bool{false, true} {
		for _, cores := range []int{1, 2, 4, 8} {
			for _, batch := range []int{64, 256} {
				p, err := npu.MeasureThroughput(npu.ThroughputConfig{
					App: appName, Cores: cores, Batch: batch, Packets: packets,
					Reference: reference, Seed: seed, OptionWords: optWords,
				})
				if err != nil {
					return err
				}
				report.Add(p)
				fmt.Printf("%-10s %6d %6d %14.0f %10.0f %12.1f %9.3f\n",
					p.Path, p.Cores, p.Batch, p.PktsPerSec, p.NsPerPkt, p.SimCyclesPerPkt, p.HashHitRate)
			}
		}
	}
	// Degraded-mode points: half the cores quarantined, dispatch routing
	// around them — the throughput floor the supervisor guarantees.
	for _, cores := range []int{4, 8} {
		p, err := npu.MeasureThroughput(npu.ThroughputConfig{
			App: appName, Cores: cores, Batch: 256, Packets: packets,
			Seed: seed, OptionWords: optWords, QuarantineCores: cores / 2,
		})
		if err != nil {
			return err
		}
		report.Add(p)
		fmt.Printf("%-10s %6d %6d %14.0f %10.0f %12.1f %9.3f  (%d cores quarantined)\n",
			p.Path, p.Cores, p.Batch, p.PktsPerSec, p.NsPerPkt, p.SimCyclesPerPkt, p.HashHitRate, p.QuarantinedCores)
	}
	// Instrumented points: the same sweep shape at the largest configuration
	// with a live collector attached, quantifying the telemetry overhead.
	for _, cores := range []int{4, 8} {
		p, err := npu.MeasureThroughput(npu.ThroughputConfig{
			App: appName, Cores: cores, Batch: 256, Packets: packets,
			Seed: seed, OptionWords: optWords, Instrumented: true,
		})
		if err != nil {
			return err
		}
		report.Add(p)
		fmt.Printf("%-10s %6d %6d %14.0f %10.0f %12.1f %9.3f  (instrumented)\n",
			p.Path, p.Cores, p.Batch, p.PktsPerSec, p.NsPerPkt, p.SimCyclesPerPkt, p.HashHitRate)
	}
	// Sharded-plane points: the line-card scaling curve of the multi-NP
	// traffic plane. The scaling is stated on the simulated aggregate
	// (virtual time), which a small host can measure faithfully; the wall
	// numbers ride along. See internal/shard.
	fmt.Printf("%-10s %6s %6s %14s %14s %12s\n",
		"path", "shards", "cores", "wall pkts/sec", "sim agg pps", "p99 batch cyc")
	for _, shards := range []int{1, 2, 4, 8} {
		p, err := shard.MeasureThroughput(shard.BenchConfig{
			App: appName, Shards: shards, CoresPerShard: 2, Batch: 256,
			Packets: packets, Flows: 256, Seed: seed,
		})
		if err != nil {
			return err
		}
		report.Add(p)
		fmt.Printf("%-10s %6d %6d %14.0f %14.0f %12d\n",
			p.Path, p.Shards, p.Cores, p.PktsPerSec, p.SimAggPktsPerSec, p.P99BatchCycles)
	}
	// Ingress hand-off points: the lock-free ring + arena against the
	// mutex-queue baseline it replaced, across submitter counts. See
	// internal/shard/ingress.go and EXPERIMENTS.md §E16.
	if err := runIngressSweep(report, seed); err != nil {
		return err
	}
	// Fleet-rollout points: the control plane's makespan curve over fleet
	// size and management-link loss, in virtual link-seconds. See
	// internal/fleet and EXPERIMENTS.md §E14.
	fmt.Printf("%-22s %6s %14s %10s %16s\n",
		"fleet rollout", "groups", "makespan(s)", "attempts", "attempts/router")
	report.FleetRollout = make(map[string]npu.FleetRolloutPoint)
	for _, routers := range []int{100, 300, 1000} {
		for _, drop := range []float64{0, 0.05, 0.15} {
			m, err := fleet.MeasureRollout(routers, drop, seed)
			if err != nil {
				return err
			}
			key := fmt.Sprintf("routers=%d/loss=%.0f%%", m.Routers, m.DropRate*100)
			report.FleetRollout[key] = npu.FleetRolloutPoint{
				Routers:           m.Routers,
				Groups:            m.Groups,
				DropRate:          m.DropRate,
				MakespanSeconds:   m.MakespanSeconds,
				TotalAttempts:     m.TotalAttempts,
				AttemptsPerRouter: m.AttemptsPerRouter,
			}
			fmt.Printf("%-22s %6d %14.2f %10d %16.2f\n",
				key, m.Groups, m.MakespanSeconds, m.TotalAttempts, m.AttemptsPerRouter)
		}
	}
	// Campaign-detection points: packets-to-detection distributions of the
	// adversarial campaign corpus, per family, over a seed sweep. See
	// internal/campaign and EXPERIMENTS.md §E15.
	fmt.Printf("%-22s %8s %10s %10s %14s\n",
		"campaign family", "detected", "p50 pkts", "p99 pkts", "mean evasion")
	report.CampaignDetection = make(map[string]npu.CampaignDetectionPoint)
	for _, family := range campaign.Families() {
		d, err := campaign.MeasureDetection(family, campaignSweepSeeds, seed)
		if err != nil {
			return err
		}
		report.CampaignDetection[family] = npu.CampaignDetectionPoint{
			Family:           d.Family,
			Runs:             d.Runs,
			Detected:         d.Detected,
			P50:              d.P50,
			P99:              d.P99,
			Min:              d.Min,
			Max:              d.Max,
			MeanEvasionDepth: d.MeanEvasionDepth,
		}
		fmt.Printf("%-22s %4d/%-3d %10d %10d %14.1f\n",
			family, d.Detected, d.Runs, d.P50, d.P99, d.MeanEvasionDepth)
	}
	// Tenant-isolation points: the slowest tenant's throughput as the plane
	// is split among 1/2/4 tenants. See internal/tenant and EXPERIMENTS.md
	// §E17.
	if err := runTenantSweep(report, packets, seed); err != nil {
		return err
	}
	if err := report.Write(out); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	for k, s := range report.SpeedupFastVsReference {
		fmt.Printf("  speedup fast/reference %s: %.2fx\n", k, s)
	}
	for k, o := range report.OverheadInstrumented {
		fmt.Printf("  overhead instrumented/bare %s: %.2f%%\n", k, 100*(o-1))
	}
	for k, s := range report.ShardScaling {
		fmt.Printf("  shard scaling %s: %.2fx\n", k, s)
	}
	for k, s := range report.IngressFast {
		fmt.Printf("  ingress ring/mutex %s: %.2fx\n", k, s)
	}
	return nil
}

// runIngressSweep measures the ingress hand-off — producers feeding one
// consumer — through the mutex-queue baseline and the lock-free ring, at
// 1, 4 and 16 submitters, and adds the points to the report (replacing
// any earlier measurement of the same shape).
func runIngressSweep(report *npu.BenchReport, seed int64) error {
	fmt.Printf("%-14s %10s %14s %10s\n", "ingress", "submitters", "pkts/sec", "ns/pkt")
	for _, mutex := range []bool{true, false} {
		for _, submitters := range []int{1, 4, 16} {
			// Best of three: on a shared host a single hand-off run can
			// lose tens of percent to scheduler luck, and the recorded
			// baseline should be the sustainable rate, not the unluckiest.
			var best npu.BenchPoint
			for rep := 0; rep < 3; rep++ {
				p, err := shard.MeasureIngress(shard.IngressConfig{
					Submitters: submitters,
					Packets:    200000,
					Seed:       seed,
					MutexQueue: mutex,
				})
				if err != nil {
					return err
				}
				if p.PktsPerSec > best.PktsPerSec {
					best = p
				}
			}
			report.Add(best)
			fmt.Printf("%-14s %10d %14.0f %10.1f\n", best.Path, best.Submitters, best.PktsPerSec, best.NsPerPkt)
		}
	}
	return nil
}

// runBenchIngress refreshes only the ingress points of an existing BENCH
// document (or starts a fresh one if none exists), leaving every other
// measured series untouched; Write recomputes the derived ratio maps.
func runBenchIngress(appName string, seed int64, out string) error {
	report, err := npu.LoadBenchReport(out)
	if err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		report = npu.NewBenchReport(appName, "npsim -benchingress")
	}
	fmt.Printf("npsim bench-ingress: merging into %s\n", out)
	if err := runIngressSweep(report, seed); err != nil {
		return err
	}
	if err := report.Write(out); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	for k, s := range report.IngressFast {
		fmt.Printf("  ingress ring/mutex %s: %.2fx\n", k, s)
	}
	return nil
}

func run(appName string, cores, packets, attacks int, monitors bool, qdepth, optWords int, seed int64, clockMHz float64, forensicDepth int, col *obs.Collector) error {
	app, err := apps.ByName(appName)
	if err != nil {
		return err
	}
	prog, err := app.Program()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	param := rng.Uint32()
	h := mhash.NewMerkle(param)
	g, err := monitor.Extract(prog, h)
	if err != nil {
		return err
	}
	np, err := npu.New(npu.Config{Cores: cores, MonitorsEnabled: monitors, TraceDepth: forensicDepth, Obs: col})
	if err != nil {
		return err
	}
	if err := np.InstallAll(appName, prog.Serialize(), g.Serialize(), param); err != nil {
		return err
	}
	fmt.Printf("npsim: %s on %d cores, monitors=%v, graph %d nodes (%d bits)\n",
		appName, cores, monitors, g.Len(), g.MemoryBits())

	gen := packet.NewGenerator(seed)
	gen.OptionWords = optWords

	var atk []byte
	if attacks > 0 {
		smash := attack.DefaultSmash()
		code, err := smash.HijackPayload()
		if err != nil {
			return err
		}
		atk, err = smash.CraftPacket(code)
		if err != nil {
			return err
		}
	}

	total := packets + attacks
	every := 0
	if attacks > 0 {
		every = total / attacks
	}
	hijacked := 0
	attacksSent := 0
	for i := 0; i < total; i++ {
		var pkt []byte
		isAttack := every > 0 && attacksSent < attacks && i%every == every-1
		if isAttack {
			pkt = atk
			attacksSent++
		} else {
			pkt = gen.Next()
		}
		res, err := np.Process(pkt, qdepth)
		if err != nil {
			return err
		}
		if isAttack && attack.Succeeded(apps.PacketResult{Verdict: res.Verdict, Packet: res.Packet}) {
			hijacked++
		}
		if res.Detected && forensicDepth > 0 {
			fmt.Printf("\nALARM on core %d — forensic trace (last %d instructions, !! = alarm):\n%s\n",
				res.Core, forensicDepth, np.TraceDump(res.Core, forensicDepth))
			forensicDepth = 0 // dump the first alarm only
		}
	}

	s := np.Stats()
	fmt.Printf("packets: %d benign + %d attacks\n", packets, attacksSent)
	fmt.Printf("  forwarded=%d dropped=%d alarms=%d faults=%d hijacked=%d\n",
		s.Forwarded, s.Dropped, s.Alarms, s.Faults, hijacked)
	if s.Processed > 0 {
		cpp := float64(s.Cycles) / float64(s.Processed)
		mpps := clockMHz / cpp
		fmt.Printf("  %.0f cycles/packet -> %.2f Mpps/core, %.2f Mpps aggregate at %.0f MHz\n",
			cpp, mpps, mpps*float64(cores), clockMHz)
	}
	for c := 0; c < cores; c++ {
		if checked, alarms, maxPos, err := np.MonitorStats(c); err == nil {
			fmt.Printf("  core %d monitor: %d instructions checked, %d alarms, max %d parallel positions\n",
				c, checked, alarms, maxPos)
		}
	}
	return nil
}
