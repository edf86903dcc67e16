package main

import (
	"fmt"

	"sdmmon/internal/apps"
	"sdmmon/internal/npu"
	"sdmmon/internal/shard"
)

// oracleImages lists the (application, parameter, packets) triples whose
// verdicts must hold: every packet under every hash parameter the run can
// make live. Device workloads may route any packet to either card, so
// every packet is checked under every parameter; a tenant's packets only
// ever run under that tenant's parameters.
type oracleImage struct {
	app     *apps.App
	param   uint32
	tenant  int
	packets []int // pool indexes
}

func oracleImages(w workload, in *inputs) []oracleImage {
	var out []oracleImage
	if !w.tenanted {
		all := make([]int, len(in.pool))
		for i := range all {
			all[i] = i
		}
		for _, p := range append(append([]uint32(nil), in.initParams...), in.rekeyParams...) {
			out = append(out, oracleImage{app: fwdApp, param: p, packets: all})
		}
		return out
	}
	for t := range tenantNames {
		var mine []int
		for i, pt := range in.tenant {
			if pt == t {
				mine = append(mine, i)
			}
		}
		params := []uint32{in.initParams[t]}
		for j := t; j < rekeyParamCount; j += 2 {
			params = append(params, in.rekeyParams[j])
		}
		for _, p := range params {
			out = append(out, oracleImage{app: tenantApps[t], param: p, tenant: t, packets: mine})
		}
	}
	return out
}

// bareNP builds a 1-core NP with one application installed.
func bareNP(app *apps.App, param uint32, monitors, reference bool) (*npu.NP, error) {
	bs, err := bundles([]release{{app: app, param: param}})
	if err != nil {
		return nil, err
	}
	np, err := npu.New(npu.Config{Cores: 1, MonitorsEnabled: monitors, Reference: reference})
	if err != nil {
		return nil, err
	}
	if err := np.InstallAll(app.Name, bs[0].Binary, bs[0].Graph, bs[0].HashParam); err != nil {
		return nil, err
	}
	return np, nil
}

// runOracle replays each image's packets through a Config.Reference NP
// and the fast NP at queue depth 0 and requires identical verdict,
// Detected and cycles per packet, and the expected outcome: benign
// packets forwarded without alarm, attack packets detected.
func runOracle(w workload, in *inputs, monitors bool) []string {
	var fails []string
	for _, im := range oracleImages(w, in) {
		ref, err := bareNP(im.app, im.param, monitors, true)
		if err != nil {
			return append(fails, fmt.Sprintf("oracle: reference NP: %v", err))
		}
		fast, err := bareNP(im.app, im.param, monitors, false)
		if err != nil {
			return append(fails, fmt.Sprintf("oracle: fast NP: %v", err))
		}
		bad := 0
		for lo := 0; lo < len(im.packets); lo += burstSize {
			hi := min(lo+burstSize, len(im.packets))
			batch := make([][]byte, 0, hi-lo)
			for _, i := range im.packets[lo:hi] {
				batch = append(batch, in.pool[i])
			}
			rr, err := ref.ProcessBatch(batch, 0)
			if err != nil {
				return append(fails, fmt.Sprintf("oracle: reference batch: %v", err))
			}
			// The fields that decide a packet's fate, compared as a whole.
			type fate struct {
				verdict  int
				detected bool
				faulted  bool
				cycles   uint64
			}
			refFates := make([]fate, len(rr))
			for k, r := range rr {
				refFates[k] = fate{r.Verdict, r.Detected, r.Faulted, r.Cycles}
			}
			fr, err := fast.ProcessBatch(batch, 0)
			if err != nil {
				return append(fails, fmt.Sprintf("oracle: fast batch: %v", err))
			}
			for k, r := range fr {
				i := im.packets[lo+k]
				rf := refFates[k]
				got := fate{r.Verdict, r.Detected, r.Faulted, r.Cycles}
				var why string
				switch {
				case got != rf:
					why = fmt.Sprintf("fast %+v != reference %+v", got, rf)
				case in.attack[i] && !got.detected:
					why = "alarm check: attack packet not detected"
				case !in.attack[i] && (got.detected || got.faulted || got.verdict != apps.VerdictForward):
					why = fmt.Sprintf("benign packet not forwarded cleanly: %+v", got)
				}
				if why != "" {
					bad++
					if bad <= 3 {
						fails = append(fails, fmt.Sprintf("oracle: %s param %#x packet %d: %s", im.app.Name, im.param, i, why))
					}
				}
			}
		}
		if bad > 3 {
			fails = append(fails, fmt.Sprintf("oracle: %s param %#x: %d packets failed in all", im.app.Name, im.param, bad))
		}
	}
	return fails
}

// checkPlane applies the post-run rules to the quiesced, closed plane:
// conservation (the generator's count included), no tail-dropped, starved
// or rejected packets, every benign packet forwarded and every attack
// alarmed and dropped — which leaves no room for a hijack.
func checkPlane(ps shard.PlaneStats, g *gen) []string {
	var fails []string
	var alarms, faults uint64
	for _, s := range ps.Shards {
		alarms += s.Alarms
		faults += s.Faults
	}
	benign := g.sent - g.attacks
	if !ps.Conserved() || ps.Arrived != g.sent || ps.Backlog != 0 {
		fails = append(fails, fmt.Sprintf("conservation: sent %d, arrived %d, settled %d, backlog %d",
			g.sent, ps.Arrived, ps.Forwarded+ps.AppDrops+ps.Rejected+ps.TailDrops+ps.Starved, ps.Backlog))
	}
	for _, t := range ps.Tenants {
		if !t.Conserved() {
			fails = append(fails, fmt.Sprintf("conservation: tenant %q not conserved", t.Name))
		}
	}
	if lost := ps.TailDrops + ps.Starved + ps.Rejected; lost != 0 || g.refused != 0 {
		fails = append(fails, fmt.Sprintf("admission: %d tail-dropped, %d starved, %d rejected", ps.TailDrops, ps.Starved, ps.Rejected))
	}
	if ps.Forwarded != benign {
		fails = append(fails, fmt.Sprintf("forwarding: %d forwarded, %d benign sent", ps.Forwarded, benign))
	}
	if alarms != g.attacks || ps.AppDrops != g.attacks || faults != 0 {
		fails = append(fails, fmt.Sprintf("alarm check: %d alarms, %d app drops, %d faults for %d attacks sent",
			alarms, ps.AppDrops, faults, g.attacks))
	}
	return fails
}
