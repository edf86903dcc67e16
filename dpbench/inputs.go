package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"sdmmon/internal/apps"
	"sdmmon/internal/attack"
	"sdmmon/internal/core"
	"sdmmon/internal/packet"
	"sdmmon/internal/seccrypto"
)

// workload names one traffic mix and the plane it runs on.
type workload struct {
	name string
	// tenanted runs two protection domains (counter and udpecho) on one
	// 2-core NP behind one shard through tenant.Manager; otherwise the
	// plane is ipv4cm on 2 shards x 1 core, secure-installed through
	// core.Device.
	tenanted bool
	// attacks makes 1 packet in attackEvery an attack.DefaultSmash stack
	// smash.
	attacks bool
	// liveRekey re-keys one card at rekeyCadence during the saturated
	// phase itself; the other workloads re-key in a trailing phase.
	liveRekey bool
}

var workloads = []workload{
	{name: "ipv4cm_fwd"},
	{name: "attack_rekey", attacks: true, liveRekey: true},
	{name: "tenant_small", tenanted: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const (
	poolSize    = 4096 // distinct packets per run; the generator cycles them
	burstSize   = 64   // packets per SubmitBatch
	attackEvery = 16
	fwdFlows    = 1024
	tenantFlows = 4096
	tenantPkt   = 64 // bytes, IPv4 + UDP
	// rekeyParamCount is the length of the re-key parameter schedule:
	// re-key j installs rekeyParams[j%rekeyParamCount] on card (or
	// tenant) j%2, so each card alternates between two fresh parameters.
	rekeyParamCount = 4
)

// tenant names and applications of tenant_small, in tenant-index order.
var tenantNames = []string{"alpha", "beta"}

// inputs is everything a run feeds the program, derived from the seed.
type inputs struct {
	pool   [][]byte
	attack []bool
	// tenant is each packet's tenant index (all 0 when untenanted).
	tenant []int
	// batchAttacks counts attacks in each aligned burstSize-packet batch.
	batchAttacks []uint64
	// initParams is the first install's hash parameter per card (device
	// workloads) or per tenant.
	initParams []uint32
	// rekeyParams is the re-key schedule.
	rekeyParams []uint32
}

// seedFor separates the per-workload random streams of one seed.
func seedFor(w workload, seed int64) int64 {
	h := int64(0)
	for _, c := range w.name {
		h = h*131 + int64(c)
	}
	return seed*1_000_003 + h
}

// generate builds a workload's inputs from the seed.
func generate(w workload, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seedFor(w, seed)))
	in := &inputs{}
	if w.tenanted {
		genTenant(rng, in)
	} else if err := genForwarding(rng, in, w.attacks); err != nil {
		return nil, err
	}
	for b := 0; b < poolSize/burstSize; b++ {
		n := uint64(0)
		for _, a := range in.attack[b*burstSize : (b+1)*burstSize] {
			if a {
				n++
			}
		}
		in.batchAttacks = append(in.batchAttacks, n)
	}
	params := distinctParams(rng, 2+rekeyParamCount)
	in.initParams, in.rekeyParams = params[:2], params[2:]
	return in, nil
}

func distinctParams(rng *rand.Rand, n int) []uint32 {
	seen := map[uint32]bool{}
	var out []uint32
	for len(out) < n {
		p := rng.Uint32()
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

type flow struct {
	src, dst         [4]byte
	proto            uint8
	srcPort, dstPort uint16
}

func randomFlow(rng *rand.Rand, srcLast byte) flow {
	f := flow{
		src:     packet.IP(10, byte(rng.Intn(256)), byte(rng.Intn(256)), srcLast),
		dst:     packet.IP(192, 168, byte(rng.Intn(256)), byte(1+rng.Intn(254))),
		proto:   packet.ProtoTCP,
		srcPort: uint16(1024 + rng.Intn(60000)),
		dstPort: uint16(1 + rng.Intn(1024)),
	}
	if rng.Intn(2) == 0 {
		f.proto = packet.ProtoUDP
	}
	return f
}

// l4 builds a transport payload of n bytes (n >= 8) carrying the flow's
// port pair where a 5-tuple hash reads it.
func l4(rng *rand.Rand, f flow, n int) []byte {
	body := make([]byte, n-8)
	rng.Read(body)
	if f.proto == packet.ProtoUDP {
		return (&packet.UDP{SrcPort: f.srcPort, DstPort: f.dstPort, Payload: body}).Marshal()
	}
	b := make([]byte, n)
	copy(b[8:], body)
	binary.BigEndian.PutUint16(b[0:], f.srcPort)
	binary.BigEndian.PutUint16(b[2:], f.dstPort)
	return b
}

func ipv4(rng *rand.Rand, f flow, options, payload []byte) ([]byte, error) {
	p := &packet.IPv4{
		TOS:     uint8(rng.Intn(64))<<2 | 0x2, // any DSCP, ECT(0)
		ID:      uint16(rng.Intn(65536)),
		TTL:     uint8(2 + rng.Intn(62)),
		Proto:   f.proto,
		Src:     f.src,
		Dst:     f.dst,
		Options: options,
		Payload: payload,
	}
	return p.Marshal()
}

// genForwarding builds the ipv4cm mix: bursty runs of 1-4 packets over
// fwdFlows flows, 0-4 NOP option words (the option copy loop is most of
// ipv4cm's per-packet work), total lengths from the smallest header up
// to 1500 bytes; with attacks, every attackEvery-th packet is a stack
// smash re-addressed onto a random flow's source.
func genForwarding(rng *rand.Rand, in *inputs, attacks bool) error {
	flows := make([]flow, fwdFlows)
	for i := range flows {
		flows[i] = randomFlow(rng, byte(1+rng.Intn(254)))
	}
	var smash []byte
	if attacks {
		c := attack.DefaultSmash()
		code, err := c.HijackPayload()
		if err != nil {
			return err
		}
		if smash, err = c.CraftPacket(code); err != nil {
			return err
		}
	}
	for len(in.pool) < poolSize {
		f := flows[rng.Intn(len(flows))]
		for run := 1 + rng.Intn(4); run > 0 && len(in.pool) < poolSize; run-- {
			if attacks && len(in.pool)%attackEvery == attackEvery-1 {
				in.pool = append(in.pool, readdress(smash, flows[rng.Intn(len(flows))].src, uint16(rng.Intn(65536))))
				in.attack = append(in.attack, true)
				in.tenant = append(in.tenant, 0)
				continue
			}
			words := rng.Intn(5)
			opts := make([]byte, 4*words)
			for i := range opts {
				opts[i] = 0x01 // IP NOP option
			}
			hdr := 20 + len(opts)
			total := hdr + 8 + rng.Intn(1500-hdr-8+1)
			pkt, err := ipv4(rng, f, opts, l4(rng, f, total-hdr))
			if err != nil {
				return err
			}
			in.pool = append(in.pool, pkt)
			in.attack = append(in.attack, false)
			in.tenant = append(in.tenant, 0)
		}
	}
	return nil
}

// readdress copies the smash packet onto another source address and IP
// ID, marks it ECT(0) like the benign flows and re-computes the header
// checksum. The overflowing options and the injected code are untouched.
func readdress(smash []byte, src [4]byte, id uint16) []byte {
	pkt := append([]byte(nil), smash...)
	copy(pkt[12:16], src[:])
	binary.BigEndian.PutUint16(pkt[4:], id)
	pkt[1] = 0x2
	ihl := int(pkt[0]&0xF) * 4
	binary.BigEndian.PutUint16(pkt[10:], packet.Checksum(pkt[:ihl]))
	return pkt
}

// genTenant builds tenant_small's mix: 64-byte UDP packets over
// tenantFlows flows, alternating tenants packet by packet. A flow's
// tenant is the parity of its source address's last byte.
func genTenant(rng *rand.Rand, in *inputs) {
	var flows [2][]flow
	for i := 0; i < tenantFlows; i++ {
		t := i % 2
		f := randomFlow(rng, byte(2+2*rng.Intn(126)+t))
		f.proto = packet.ProtoUDP
		flows[t] = append(flows[t], f)
	}
	for i := 0; i < poolSize; i++ {
		t := i % 2
		f := flows[t][rng.Intn(len(flows[t]))]
		pkt, err := ipv4(rng, f, nil, l4(rng, f, tenantPkt-20))
		if err != nil {
			panic(err) // fixed 64-byte packets always marshal
		}
		in.pool = append(in.pool, pkt)
		in.attack = append(in.attack, false)
		in.tenant = append(in.tenant, t)
	}
}

// classifyTenant is tenant_small's flow classifier.
func classifyTenant(pkt []byte) int {
	if len(pkt) < 20 {
		return -1
	}
	return int(pkt[15] & 1)
}

// The applications, built once so each is assembled once per run.
var (
	fwdApp     = apps.IPv4CM()
	tenantApps = []*apps.App{apps.Counter(), apps.UDPEcho()}
)

// release is one install the run performs: which card (or tenant), which
// application, under which hash parameter.
type release struct {
	target int
	app    *apps.App
	param  uint32
}

// releases lists a run's installs in the order they happen: for each of
// reps set-ups, every card (or tenant) under its initial parameter, then
// up to perRep re-keys. Re-key k of a set-up goes to card (or tenant)
// k%2 with rekeyParams[k%rekeyParamCount].
func releases(w workload, in *inputs, reps, perRep int) []release {
	appFor := func(t int) *apps.App {
		if w.tenanted {
			return tenantApps[t]
		}
		return fwdApp
	}
	var out []release
	for r := 0; r < reps; r++ {
		for t, p := range in.initParams {
			out = append(out, release{target: t, app: appFor(t), param: p})
		}
		for k := 0; k < perRep; k++ {
			out = append(out, release{target: k % 2, app: appFor(k % 2), param: in.rekeyParams[k%rekeyParamCount]})
		}
	}
	return out
}

// bundles runs the operator's offline packaging for each release: the
// signed manifest, binary, monitoring graph and parameter. A fresh
// operator numbers the manifests 1, 2, ... per application, so the same
// seed gives byte-identical bundles.
func bundles(rels []release) ([]*seccrypto.Bundle, error) {
	op := &core.Operator{Name: "bench"}
	return bundlesWith(op, rels)
}

func bundlesWith(op *core.Operator, rels []release) ([]*seccrypto.Bundle, error) {
	out := make([]*seccrypto.Bundle, len(rels))
	for i, r := range rels {
		b, err := op.PrepareBundleWith(r.app, r.param)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}
