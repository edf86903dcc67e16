package main

import (
	"crypto/rand"
	"fmt"
	"time"

	"sdmmon/internal/apps"
	"sdmmon/internal/cpu"
	"sdmmon/internal/isa"
	"sdmmon/internal/mhash"
	"sdmmon/internal/monitor"
	"sdmmon/internal/npu"
	"sdmmon/internal/obs"
	"sdmmon/internal/seccrypto"
)

// The layer rounds run until their share of the run's seconds is spent,
// and at least replayPasses times; installs and package opens are timed a
// fixed number of times.
const (
	replayPasses = 5
	installReps  = 15
	openReps     = 15
)

// privateNP builds an NP of the plane's shape (one ipv4cm core, or one
// 2-core NP with a core per tenant) with the initial releases installed,
// outside any plane.
func privateNP(w workload, in *inputs, monitors bool, col *obs.Collector) (*npu.NP, error) {
	if !w.tenanted {
		bs, err := bundles([]release{{app: fwdApp, param: in.initParams[0]}})
		if err != nil {
			return nil, err
		}
		np, err := npu.New(npu.Config{Cores: 1, MonitorsEnabled: monitors, Obs: col})
		if err != nil {
			return nil, err
		}
		return np, np.InstallAll(fwdApp.Name, bs[0].Binary, bs[0].Graph, bs[0].HashParam)
	}
	np, err := npu.New(npu.Config{Cores: len(tenantNames), MonitorsEnabled: monitors, Obs: col})
	if err != nil {
		return nil, err
	}
	specs := make([]npu.DomainSpec, len(tenantNames))
	for t, name := range tenantNames {
		specs[t] = npu.DomainSpec{Name: name, Cores: []int{t}}
	}
	if err := np.SetDomains(specs); err != nil {
		return nil, err
	}
	for t, name := range tenantNames {
		bs, err := bundles([]release{{app: tenantApps[t], param: in.initParams[t]}})
		if err != nil {
			return nil, err
		}
		if err := np.InstallDomainAll(name, tenantApps[t].Name, bs[0].Binary, bs[0].Graph, bs[0].HashParam); err != nil {
			return nil, err
		}
	}
	return np, nil
}

// batchJob is one drained batch: a tenant's packets go to its domain.
type batchJob struct {
	domain string // "" for the untenanted NP
	pkts   [][]byte
}

// jobs splits the pool into the batches a plane lane would drain:
// burstSize packets, one tenant each.
func jobs(w workload, in *inputs) []batchJob {
	var out []batchJob
	lanes := 1
	if w.tenanted {
		lanes = len(tenantNames)
	}
	for t := 0; t < lanes; t++ {
		var cur [][]byte
		for i, pkt := range in.pool {
			if in.tenant[i] != t {
				continue
			}
			cur = append(cur, pkt)
			if len(cur) == burstSize {
				out = append(out, batchJob{domain: domainOf(w, t), pkts: cur})
				cur = nil
			}
		}
		if len(cur) > 0 {
			out = append(out, batchJob{domain: domainOf(w, t), pkts: cur})
		}
	}
	return out
}

func domainOf(w workload, t int) string {
	if w.tenanted {
		return tenantNames[t]
	}
	return ""
}

func drain(np *npu.NP, j batchJob) error {
	if j.domain == "" {
		_, err := np.ProcessBatch(j.pkts, 0)
		return err
	}
	_, err := np.DrainBatchDomainRelease(j.domain, j.pkts, 0, nil)
	return err
}

// pairPass drains every job once on the bare NP and once on the
// instrumented one, one span per batch, alternating which goes first so
// drift cancels. It returns the bare pass's ns per packet and each job's
// instrumented-minus-bare difference in ns per packet.
func pairPass(tr *tracer, parent int, bare, inst *npu.NP, js []batchJob) (float64, []float64, error) {
	var ns, n int64
	diffs := make([]float64, 0, len(js))
	for k, j := range js {
		var d [2]int64
		for i := 0; i < 2; i++ {
			np, name, side := bare, "npu.batch", 0
			if (i+k)%2 == 1 {
				np, name, side = inst, "npu.batch.obs", 1
			}
			id := tr.begin(name, parent)
			err := drain(np, j)
			tr.end(id, int64(len(j.pkts)))
			if err != nil {
				return 0, nil, fmt.Errorf("%s: %w", name, err)
			}
			d[side] = tr.dur(id)
		}
		ns += d[0]
		n += int64(len(j.pkts))
		diffs = append(diffs, float64(d[1]-d[0])/float64(len(j.pkts)))
	}
	return float64(ns) / float64(n), diffs, nil
}

// streams is every packet's retired-instruction stream, (pc<<32 | word),
// recorded through the apps.Core.Trace tap.
type streams struct {
	words  []uint64
	offs   []int // packet i's stream is words[offs[i]:offs[i+1]]
	cycles uint64
}

// record runs each pool packet once through a private NP at queue depth
// 0 with a tap in front of each core's monitor port.
func record(w workload, in *inputs, np *npu.NP) (*streams, error) {
	st := &streams{offs: []int{0}}
	lanes := 1
	if w.tenanted {
		lanes = len(tenantNames)
	}
	for id := 0; id < lanes; id++ {
		c, err := np.Core(id)
		if err != nil {
			return nil, err
		}
		orig := c.Trace
		c.Trace = func(pc uint32, iw isa.Word) bool {
			st.words = append(st.words, uint64(pc)<<32|uint64(uint32(iw)))
			if orig == nil {
				return true
			}
			return orig(pc, iw)
		}
		defer func() { c.Trace = orig }()
	}
	for i, pkt := range in.pool {
		res, err := np.ProcessOn(in.tenant[i], pkt, 0)
		if err != nil {
			return nil, err
		}
		st.cycles += res.Cycles
		st.offs = append(st.offs, len(st.words))
	}
	return st, nil
}

// appOf is the application and initial parameter packet i runs under.
func appOf(w workload, in *inputs, i int) (*apps.App, uint32) {
	if w.tenanted {
		return tenantApps[in.tenant[i]], in.initParams[in.tenant[i]]
	}
	return fwdApp, in.initParams[0]
}

// cpuPass times cpu.CPU.Run without a trace tap on every pool packet.
// The packet copy-in and register set-up run in the same loop, so a
// second, setup-only pass is timed and taken off: the result is ns per
// retired instruction of Run alone.
func cpuPass(tr *tracer, parent int, w workload, in *inputs, cores map[*apps.App]*apps.Core) (float64, error) {
	for i := range in.pool {
		app, _ := appOf(w, in, i)
		if cores[app] == nil {
			prog, err := app.Program()
			if err != nil {
				return 0, err
			}
			cores[app] = apps.NewCore(prog)
		}
	}
	load := func(i int) (*cpu.CPU, uint64) {
		app, _ := appOf(w, in, i)
		core := cores[app]
		c := core.CPU()
		c.Reset(core.Program().Entry)
		core.Mem().WriteBytes(apps.PktBase, in.pool[i])
		c.Regs[isa.RegA0] = apps.PktBase
		c.Regs[isa.RegA1] = uint32(len(in.pool[i]))
		c.Regs[isa.RegA2] = 0
		c.Regs[isa.RegSP] = apps.StackTop
		return c, core.MaxCyclesPerPacket
	}
	var retired uint64
	id := tr.begin("cpu.run", parent)
	for i := range in.pool {
		c, budget := load(i)
		r0 := c.Retired
		c.Run(budget)
		retired += c.Retired - r0
	}
	tr.end(id, int64(retired))
	setup := tr.begin("cpu.setup", parent)
	for i := range in.pool {
		load(i)
	}
	tr.end(setup, int64(len(in.pool)))
	return float64(tr.dur(id)-tr.dur(setup)) / float64(retired), nil
}

// replayUnits holds, per application, a PackedMonitor and a separate
// FastHasher under the application's initial parameter.
type replayUnits struct {
	mon  map[*apps.App]*monitor.PackedMonitor
	hash map[*apps.App]*mhash.FastHasher
}

func newReplayUnits(w workload, in *inputs, st *streams) (*replayUnits, error) {
	u := &replayUnits{mon: map[*apps.App]*monitor.PackedMonitor{}, hash: map[*apps.App]*mhash.FastHasher{}}
	for i := range in.pool {
		app, param := appOf(w, in, i)
		if u.mon[app] != nil {
			continue
		}
		prog, err := app.Program()
		if err != nil {
			return nil, err
		}
		g, err := monitor.Extract(prog, mhash.NewMerkle(param))
		if err != nil {
			return nil, err
		}
		pg, err := monitor.Pack(g)
		if err != nil {
			return nil, err
		}
		m, err := monitor.NewPacked(pg, mhash.NewFast(mhash.NewMerkle(param), mhash.DefaultFastCacheBits))
		if err != nil {
			return nil, err
		}
		u.mon[app] = m
		u.hash[app] = mhash.NewFast(mhash.NewMerkle(param), mhash.DefaultFastCacheBits)
	}
	return u, nil
}

var hashSink uint8

// observePass replays every packet's stream into its PackedMonitor,
// resetting it per packet and stopping at the alarm like the core does,
// under one span. Returns ns per Observe call.
func observePass(tr *tracer, parent int, w workload, in *inputs, st *streams, u *replayUnits) float64 {
	var n int64
	id := tr.begin("monitor.observe", parent)
	for i := range in.pool {
		app, _ := appOf(w, in, i)
		m := u.mon[app]
		m.Reset()
		k, stop := st.offs[i], st.offs[i+1]
		for ; k < stop; k++ {
			s := st.words[k]
			if !m.Observe(uint32(s>>32), isa.Word(uint32(s))) {
				k++
				break
			}
		}
		n += int64(k - st.offs[i])
	}
	tr.end(id, n)
	return float64(tr.dur(id)) / float64(n)
}

// hashPass feeds every packet's instruction words to a FastHasher under
// one span. Returns ns per Hash call.
func hashPass(tr *tracer, parent int, w workload, in *inputs, st *streams, u *replayUnits) float64 {
	id := tr.begin("mhash.hash", parent)
	for i := range in.pool {
		app, _ := appOf(w, in, i)
		h := u.hash[app]
		for _, s := range st.words[st.offs[i]:st.offs[i+1]] {
			hashSink ^= h.Hash(uint32(s))
		}
	}
	tr.end(id, int64(len(st.words)))
	return float64(tr.dur(id)) / float64(len(st.words))
}

// timeInstalls times NP.StageInstallAll + CommitAll (the domain variants
// for tenant_small) of alternating fresh parameters, no cryptography.
func timeInstalls(tr *tracer, parent int, w workload, in *inputs, monitors bool) ([]float64, error) {
	np, err := privateNP(w, in, monitors, nil)
	if err != nil {
		return nil, err
	}
	app := fwdApp
	if w.tenanted {
		app = tenantApps[0]
	}
	rels := []release{{app: app, param: in.rekeyParams[0]}, {app: app, param: in.rekeyParams[2]}}
	bs, err := bundles(rels)
	if err != nil {
		return nil, err
	}
	var out []float64
	for r := 0; r < installReps; r++ {
		b := bs[r%2]
		id := tr.begin("npu.install", parent)
		if w.tenanted {
			err = np.StageInstallDomainAll(tenantNames[0], app.Name, b.Binary, b.Graph, b.HashParam)
			if err == nil {
				_, err = np.CommitDomainAll(tenantNames[0])
			}
		} else {
			err = np.StageInstallAll(app.Name, b.Binary, b.Graph, b.HashParam)
			if err == nil {
				_, err = np.CommitAll()
			}
		}
		tr.end(id, 1)
		if err != nil {
			return nil, fmt.Errorf("npu install: %w", err)
		}
		out = append(out, float64(tr.dur(id))/1e6)
	}
	return out, nil
}

// timeOpens times seccrypto.DeviceIdentity.OpenPackage of fresh signed
// packages (pinned operator: certificate check skipped, as on a re-key).
// It manufactures its own identities, untimed.
func timeOpens(tr *tracer, parent int, w workload, in *inputs) ([]float64, error) {
	mfr, err := seccrypto.NewManufacturer("ledger-mfr", rand.Reader)
	if err != nil {
		return nil, err
	}
	dev, err := mfr.ProvisionDevice("ledger-dev", rand.Reader)
	if err != nil {
		return nil, err
	}
	op, err := seccrypto.NewOperator("ledger-op", rand.Reader)
	if err != nil {
		return nil, err
	}
	cert, err := mfr.IssueCertificate(op)
	if err != nil {
		return nil, err
	}
	op.SetCertificate(cert)
	app := fwdApp
	if w.tenanted {
		app = tenantApps[0]
	}
	rels := make([]release, openReps)
	for r := range rels {
		rels[r] = release{app: app, param: in.rekeyParams[r%rekeyParamCount]}
	}
	bs, err := bundles(rels)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*seccrypto.Package, len(bs))
	for r, b := range bs {
		if pkgs[r], err = op.BuildPackage(dev.PublicInfo(), b, rand.Reader); err != nil {
			return nil, err
		}
	}
	var out []float64
	for _, p := range pkgs {
		id := tr.begin("seccrypto.open", parent)
		_, _, err := dev.OpenPackage(p, true)
		tr.end(id, 1)
		if err != nil {
			return nil, fmt.Errorf("open package: %w", err)
		}
		out = append(out, float64(tr.dur(id))/1e6)
	}
	return out, nil
}

// layerRun measures every layer on a private NP of the plane's shape at
// queue depth 0, from the same inputs, and returns the per-layer metrics.
// The layers are timed in rounds — paired bare and instrumented batches,
// then CPU, monitor and hash replays, one pass each — so host drift moves
// them together; each metric is the median over rounds (over paired
// batches for obs.ns_per_pkt). Rounds run until budget is spent, at
// least replayPasses of them.
func layerRun(tr *tracer, w workload, in *inputs, monitors bool, budget time.Duration) (map[string]float64, error) {
	m := map[string]float64{}
	ledger := tr.begin("ledger", rootSpan)
	defer tr.end(ledger, 0)

	bare, err := privateNP(w, in, monitors, nil)
	if err != nil {
		return nil, err
	}
	inst, err := privateNP(w, in, monitors, obs.New(0))
	if err != nil {
		return nil, err
	}
	js := jobs(w, in)
	// Warm both NPs (hash caches, arenas) before timing.
	for _, np := range []*npu.NP{bare, inst} {
		for _, j := range js {
			if err := drain(np, j); err != nil {
				return nil, err
			}
		}
	}
	st, err := record(w, in, bare)
	if err != nil {
		return nil, err
	}
	instrPerPkt := float64(len(st.words)) / float64(len(in.pool))
	m["cpu.instr_per_pkt"] = instrPerPkt
	m["cpu.cycles_per_pkt"] = float64(st.cycles) / float64(len(in.pool))
	u, err := newReplayUnits(w, in, st)
	if err != nil {
		return nil, err
	}
	observePass(tr, ledger, w, in, st, u) // warm the replay caches
	hashPass(tr, ledger, w, in, st, u)

	cores := map[*apps.App]*apps.Core{}
	var batchNs, obsDiff, cpuNs, obsNs, hashNs []float64
	end := time.Now().Add(budget)
	for len(batchNs) < replayPasses || time.Now().Before(end) {
		b, d, err := pairPass(tr, ledger, bare, inst, js)
		if err != nil {
			return nil, err
		}
		c, err := cpuPass(tr, ledger, w, in, cores)
		if err != nil {
			return nil, err
		}
		batchNs = append(batchNs, b)
		obsDiff = append(obsDiff, d...)
		cpuNs = append(cpuNs, c)
		obsNs = append(obsNs, observePass(tr, ledger, w, in, st, u))
		hashNs = append(hashNs, hashPass(tr, ledger, w, in, st, u))
	}
	m["npu.batch_ns_per_pkt"] = median(batchNs)
	m["obs.ns_per_pkt"] = median(obsDiff)
	m["cpu.ns_per_instr"] = median(cpuNs)
	m["mhash.ns_per_hash"] = median(hashNs)
	// Observe calls the hash unit once per instruction; its self time is
	// the replay span minus that child.
	m["monitor.ns_per_observe"] = median(obsNs) - m["mhash.ns_per_hash"]
	m["npu.fixed_ns_per_pkt"] = m["npu.batch_ns_per_pkt"] -
		instrPerPkt*(m["cpu.ns_per_instr"]+median(obsNs))

	ins, err := timeInstalls(tr, ledger, w, in, monitors)
	if err != nil {
		return nil, err
	}
	m["npu.install_ms"] = median(ins)
	opens, err := timeOpens(tr, ledger, w, in)
	if err != nil {
		return nil, err
	}
	m["seccrypto.open_ms"] = median(opens)
	return m, nil
}
