package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// layerUnits names every per-layer metric's unit; the traced run reports
// exactly these.
var layerUnits = map[string]string{
	"shard.submit_ns_per_pkt": "ns",
	"shard.pkts_per_drain":    "count",
	"shard.max_depth":         "count",
	"shard.failed_pkts":       "count",
	"npu.batch_ns_per_pkt":    "ns",
	"npu.fixed_ns_per_pkt":    "ns",
	"npu.install_ms":          "ms",
	"cpu.instr_per_pkt":       "count",
	"cpu.cycles_per_pkt":      "cycles",
	"cpu.ns_per_instr":        "ns",
	"monitor.ns_per_observe":  "ns",
	"monitor.max_positions":   "count",
	"mhash.ns_per_hash":       "ns",
	"mhash.hit_ratio":         "ratio",
	"seccrypto.open_ms":       "ms",
	"obs.ns_per_pkt":          "ns",
	"go.alloc_bytes_per_pkt":  "B",
	"go.gc_cpu_frac":          "ratio",
	"ledger.coverage":         "ratio",
	"trace.overhead":          "ratio",
	"host.steal_frac":         "ratio",
}

// coverageTolerance is how far the ledger may stray from the traced
// CPU cost per packet before the report flags it.
const coverageTolerance = 0.15

// printLedger prints the per-packet self-time ledger of the traced run:
// each layer's self cost times its per-packet count, their sum against
// the traced CPU time per packet, and then every per-layer metric.
func printLedger(log io.Writer, l map[string]float64, tracedCPU float64) {
	instr := l["cpu.instr_per_pkt"]
	rows := []struct {
		layer string
		ns    float64
	}{
		{"shard.submit (SubmitBatch self)", l["shard.submit_ns_per_pkt"]},
		{"npu fixed (batch minus children)", l["npu.fixed_ns_per_pkt"]},
		{"cpu.Run (ns/instr x instr)", l["cpu.ns_per_instr"] * instr},
		{"monitor.Observe self (x instr)", l["monitor.ns_per_observe"] * instr},
		{"mhash.Hash (x instr)", l["mhash.ns_per_hash"] * instr},
	}
	fmt.Fprintln(log, "ledger, wall ns per packet:")
	sum := 0.0
	for _, r := range rows {
		sum += r.ns
		fmt.Fprintf(log, "  %-34s %10.1f\n", r.layer, r.ns)
	}
	cov := l["ledger.coverage"]
	flag := ""
	if math.Abs(cov-1) > coverageTolerance {
		flag = fmt.Sprintf("  <-- outside +/-%.0f%%", coverageTolerance*100)
	}
	fmt.Fprintf(log, "  %-34s %10.1f\n", "sum", sum)
	fmt.Fprintf(log, "  %-34s %10.1f\n", "traced CPU per packet", tracedCPU)
	fmt.Fprintf(log, "  %-34s %10.1f\n", "unattributed (drain, wake-ups, GC)", tracedCPU-sum)
	fmt.Fprintf(log, "  ledger.coverage %.3f of traced CPU ns/pkt%s\n", cov, flag)
	fmt.Fprintf(log, "  trace.overhead  %.3f (traced pps / untraced pps)\n", l["trace.overhead"])
	names := make([]string, 0, len(l))
	for n := range l {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "  %-24s %14.4f %s\n", n, l[n], layerUnits[n])
	}
}
