package shard

import (
	"sync"
	"testing"

	"sdmmon/internal/apps"
	"sdmmon/internal/fault"
	"sdmmon/internal/mhash"
	"sdmmon/internal/monitor"
	"sdmmon/internal/network"
	"sdmmon/internal/npu"
	"sdmmon/internal/obs"
	"sdmmon/internal/packet"
)

// planeNP builds one installed line-card NP with a supervisor tight enough
// for tests to drive quarantine quickly.
func planeNP(t *testing.T, cores int, seed int64) *npu.NP {
	t.Helper()
	np, err := npu.New(npu.Config{
		Cores:           cores,
		MonitorsEnabled: true,
		Supervisor:      npu.SupervisorConfig{Window: 16, Threshold: 4, ProbationPackets: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	installIPv4CM(t, np, uint32(seed)*2654435761+0x600D)
	return np
}

func installIPv4CM(t *testing.T, np *npu.NP, param uint32) {
	t.Helper()
	prog, err := apps.IPv4CM().Program()
	if err != nil {
		t.Fatal(err)
	}
	g, err := monitor.Extract(prog, mhash.NewMerkle(param))
	if err != nil {
		t.Fatal(err)
	}
	if err := np.InstallAll("ipv4cm", prog.Serialize(), g.Serialize(), param); err != nil {
		t.Fatal(err)
	}
}

// flakyNP builds an NP whose hash units corrupt every lookup — the
// persistently faulty line card. The fault is armed after installation
// (install self-checks would reject it) and after a re-install that leaves
// the instruction-hash caches cold, so every packet goes through the faulty
// circuit and alarms.
func flakyNP(t *testing.T, cores int, seed int64) *npu.NP {
	t.Helper()
	inj := fault.New(seed)
	var flaky []*fault.FlakyHasher
	np, err := npu.New(npu.Config{
		Cores:           cores,
		MonitorsEnabled: true,
		Supervisor:      npu.SupervisorConfig{Window: 16, Threshold: 4, ProbationPackets: 8},
		NewHasher: func(p uint32) mhash.Hasher {
			h := inj.FlakyHasher(mhash.NewMerkle(p), 0)
			flaky = append(flaky, h)
			return h
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	installIPv4CM(t, np, 0xFA17)
	installIPv4CM(t, np, 0xFA17) // cold caches: lookups hit the flaky circuit
	for _, h := range flaky {
		h.SetRate(1)
	}
	return np
}

func TestFlowKeyStableAndPortSensitive(t *testing.T) {
	mk := func(srcPort uint16) []byte {
		u := &packet.UDP{SrcPort: srcPort, DstPort: 53, Payload: []byte("query")}
		p := &packet.IPv4{
			TTL: 64, Proto: packet.ProtoUDP,
			Src: packet.IP(10, 0, 0, 1), Dst: packet.IP(192, 168, 0, 1),
			Payload: u.Marshal(),
		}
		b, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := mk(1000), mk(1000)
	b[8]++ // TTL is not part of the flow identity
	if FlowKeyOf(a) != FlowKeyOf(b) {
		t.Error("key changed with a non-tuple field")
	}
	if FlowKeyOf(mk(1000)) == FlowKeyOf(mk(1001)) {
		t.Error("key ignored the source port")
	}
	// Short/malformed packets still get a stable key.
	if FlowKeyOf([]byte{1, 2, 3}) != FlowKeyOf([]byte{1, 2, 3}) {
		t.Error("short-packet key unstable")
	}
}

func TestMarkCE(t *testing.T) {
	mk := func(tos uint8) []byte {
		p := &packet.IPv4{
			TOS: tos, TTL: 64, Proto: packet.ProtoUDP,
			Src: packet.IP(10, 0, 0, 1), Dst: packet.IP(10, 0, 0, 2),
			Payload: (&packet.UDP{SrcPort: 9, DstPort: 53, Payload: []byte("q")}).Marshal(),
		}
		b, err := p.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, ect := range []uint8{0x1, 0x2} { // ECT(1), ECT(0)
		pkt := mk(0x20 | ect)
		if !packet.ChecksumOK(pkt) {
			t.Fatal("marshal produced a bad checksum")
		}
		if !markCE(pkt) {
			t.Fatalf("markCE refused an ECT packet (ECN %#x)", ect)
		}
		if pkt[1]&0x3 != 0x3 {
			t.Error("CE codepoint not set")
		}
		if !packet.ChecksumOK(pkt) {
			t.Error("incremental checksum update broke the header checksum")
		}
		if markCE(pkt) {
			t.Error("already-CE packet re-marked")
		}
	}
	// RFC 3168: not-ECT traffic must never be CE-marked.
	notECT := packet.NewGenerator(3).Next() // generator clears ECN bits
	if markCE(notECT) {
		t.Error("not-ECT packet marked")
	}
	if markCE([]byte{1, 2, 3}) {
		t.Error("short packet marked")
	}
}

// TestPlaneNotECTDropInsteadOfMark pins the RFC 3168 mark-or-drop
// equivalence at admission: a burst of not-ECT traffic past the marking
// threshold is never CE-marked — it is dropped in the mark's place — and
// every drop is accounted so conservation still holds.
func TestPlaneNotECTDropInsteadOfMark(t *testing.T) {
	plane, err := NewPlane(Config{
		NPs:           []*npu.NP{planeNP(t, 1, 77)},
		QueueCapacity: 32,
		MarkThreshold: 8,
		BatchSize:     16,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := packet.NewGenerator(7) // not-ECT traffic
	var dropped, marked int
	for i := 0; i < 20000; i++ {
		switch plane.Submit(gen.Next()) {
		case AdmitDropped:
			dropped++
		case AdmitMarked:
			marked++
		}
	}
	plane.Close()
	st := plane.Stats()
	if !st.Conserved() {
		t.Fatalf("not conserved: %+v", st)
	}
	if marked != 0 || st.Marked != 0 {
		t.Errorf("not-ECT traffic was CE-marked at admission (%d admissions, %d stats)", marked, st.Marked)
	}
	if dropped == 0 || uint64(dropped) != st.TailDrops {
		t.Errorf("threshold drops: admission saw %d, stats say %d", dropped, st.TailDrops)
	}
}

// TestPlaneFlowAffinity pins the core dispatch property: a single flow's
// packets all land on exactly one shard, and it is the shard ShardForTenant
// predicts.
func TestPlaneFlowAffinity(t *testing.T) {
	nps := make([]*npu.NP, 4)
	for i := range nps {
		nps[i] = planeNP(t, 1, int64(i+1))
	}
	plane, err := NewPlane(Config{NPs: nps, QueueCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := network.NewFlowGenerator(1, 99)
	if err != nil {
		t.Fatal(err)
	}
	first := gen.Next()
	want := plane.ShardForTenant(FlowKeyOf(first), 0)
	plane.Submit(first)
	for i := 0; i < 199; i++ {
		plane.Submit(gen.Next())
	}
	plane.Close()
	st := plane.Stats()
	if !st.Conserved() {
		t.Fatalf("not conserved: %+v", st)
	}
	for _, s := range st.Shards {
		if s.Shard == want {
			if s.Arrived != 200 {
				t.Errorf("home shard %d saw %d of 200 packets", want, s.Arrived)
			}
		} else if s.Arrived != 0 {
			t.Errorf("shard %d saw %d packets of a foreign flow", s.Shard, s.Arrived)
		}
	}
}

// TestPlaneRendezvousMinimalDisruption pins the failover property of
// rendezvous hashing: when a shard dies, only its flows move; every other
// flow keeps its shard.
func TestPlaneRendezvousMinimalDisruption(t *testing.T) {
	nps := make([]*npu.NP, 4)
	for i := range nps {
		nps[i] = planeNP(t, 1, int64(i+10))
	}
	plane, err := NewPlane(Config{NPs: nps, QueueCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()

	gen, err := network.NewFlowGenerator(64, 7)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 64)
	victimFlow := -1
	const victim = 2
	before := make([]int, 64)
	for i := range keys {
		pkt, idx := gen.NextIndexed()
		_ = idx
		keys[i] = FlowKeyOf(pkt)
		before[i] = plane.ShardForTenant(keys[i], 0)
		if before[i] == victim && victimFlow < 0 {
			victimFlow = i
		}
	}
	if victimFlow < 0 {
		t.Fatal("no flow mapped to the victim shard — salt choice broken")
	}

	// Kill the victim: quarantine its core (race-safe by contract), then
	// drive traffic at it until the worker notices and fails over.
	if err := nps[victim].Quarantine(0); err != nil {
		t.Fatal(err)
	}
	probe, err := network.NewFlowGenerator(64, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000 && plane.Stats().Failovers == 0; i++ {
		plane.Submit(probe.Next())
	}
	if got := plane.Stats().Failovers; got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}

	moved := 0
	for i, key := range keys {
		after := plane.ShardForTenant(key, 0)
		if after == victim {
			t.Fatalf("flow %d still dispatched to the dead shard", i)
		}
		if before[i] != victim && after != before[i] {
			t.Errorf("flow %d moved %d→%d though its shard is healthy", i, before[i], after)
		}
		if before[i] == victim {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no flow was on the victim shard")
	}
	if !plane.Stats().Conserved() {
		t.Fatalf("not conserved after failover: %+v", plane.Stats())
	}
}

// TestPlaneBackpressureMarksAndTailDrops pins admission control: a burst
// far past the queue bound must CE-mark past the threshold, tail-drop at
// capacity, forward marked packets with the mark intact, and still conserve
// every packet.
func TestPlaneBackpressureMarksAndTailDrops(t *testing.T) {
	col := obs.New(0)
	plane, err := NewPlane(Config{
		NPs:           []*npu.NP{planeNP(t, 1, 21)},
		QueueCapacity: 32,
		MarkThreshold: 8,
		BatchSize:     16,
		Obs:           col,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := network.NewFlowGenerator(32, 5)
	if err != nil {
		t.Fatal(err)
	}
	var dropped, marked int
	for i := 0; i < 20000; i++ {
		switch plane.Submit(gen.Next()) {
		case AdmitDropped:
			dropped++
		case AdmitMarked:
			marked++
		case AdmitStarved:
			t.Fatal("healthy plane starved a packet")
		}
	}
	plane.Close()
	st := plane.Stats()
	if !st.Conserved() {
		t.Fatalf("not conserved: %+v", st)
	}
	if st.TailDrops == 0 || uint64(dropped) != st.TailDrops {
		t.Errorf("tail drops: admission saw %d, stats say %d", dropped, st.TailDrops)
	}
	if st.Marked == 0 || uint64(marked) != st.Marked {
		t.Errorf("marked: admission saw %d, stats say %d", marked, st.Marked)
	}
	if st.ECNMarked == 0 {
		t.Error("no forwarded packet carried the CE mark out")
	}
	if st.Backlog != 0 {
		t.Errorf("backlog %d after Close", st.Backlog)
	}
	// Telemetry mirrors the stats.
	reg := col.Registry()
	if got := reg.Counter("shard_tail_drops_total").Value(); got != st.TailDrops {
		t.Errorf("shard_tail_drops_total = %d, want %d", got, st.TailDrops)
	}
	if got := reg.Counter("shard_arrived_total").Value(); got != st.Arrived {
		t.Errorf("shard_arrived_total = %d, want %d", got, st.Arrived)
	}
	bp := 0
	for _, ev := range col.Events() {
		if ev.Kind == obs.EvBackpressure {
			bp++
		}
	}
	if bp == 0 {
		t.Error("no EvBackpressure event emitted at marking onset")
	}
}

// TestPlaneConservationUnderFaultsAndFailover is the packet-conservation
// invariant of the whole plane under the worst conditions it supports: one
// shard with a persistently faulty hash circuit (alarms on every packet
// until the supervisor quarantines every core), one shard killed mid-run by
// an operator drill, admission pressure on a small queue, and the rest of
// the fleet carrying the traffic. Every submitted packet must be accounted:
// arrived == forwarded + app drops + rejected + tail drops + starved +
// backlog. Run with -race (make test-shard).
func TestPlaneConservationUnderFaultsAndFailover(t *testing.T) {
	col := obs.New(0)
	nps := []*npu.NP{
		planeNP(t, 2, 31),
		planeNP(t, 2, 32),
		planeNP(t, 2, 33),
		flakyNP(t, 2, 34),
	}
	plane, err := NewPlane(Config{
		NPs:           nps,
		QueueCapacity: 64,
		MarkThreshold: 16,
		BatchSize:     32,
		Obs:           col,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := network.NewFlowGenerator(128, 13)
	if err != nil {
		t.Fatal(err)
	}
	const total = 6000
	for i := 0; i < total; i++ {
		if i == total/3 {
			// Mid-run operator drill: kill shard 1 under live traffic.
			// Quarantine takes the slot lock, so this is safe against the
			// in-flight packets its worker is processing.
			for c := 0; c < nps[1].Cores(); c++ {
				if err := nps[1].Quarantine(c); err != nil {
					t.Fatal(err)
				}
			}
		}
		plane.Submit(gen.Next())
	}
	plane.Close()

	st := plane.Stats()
	if !st.Conserved() {
		t.Fatalf("conservation broken: arrived %d != fwd %d + app %d + rej %d + tail %d + starved %d + backlog %d\n%+v",
			st.Arrived, st.Forwarded, st.AppDrops, st.Rejected, st.TailDrops, st.Starved, st.Backlog, st)
	}
	if st.Arrived != total {
		t.Errorf("arrived %d, want %d", st.Arrived, total)
	}
	if st.Backlog != 0 {
		t.Errorf("backlog %d after Close", st.Backlog)
	}
	if st.Failovers != 2 {
		t.Errorf("failovers = %d, want 2 (flaky shard + drill)", st.Failovers)
	}
	if st.Forwarded == 0 {
		t.Error("surviving shards forwarded nothing")
	}
	var alarms uint64
	for _, s := range st.Shards {
		alarms += s.Alarms
	}
	if alarms == 0 {
		t.Error("flaky hash unit never alarmed — fault fixture broken")
	}
	for _, s := range st.Shards {
		if s.Shard == 1 || s.Shard == 3 {
			if !s.Failed {
				t.Errorf("shard %d should have failed over", s.Shard)
			}
		} else if s.Failed {
			t.Errorf("healthy shard %d failed over", s.Shard)
		}
	}
	// The failed shards' queued remainders were shed as starved drops, and
	// the events say so.
	if got := col.Registry().Counter("shard_failovers_total").Value(); got != 2 {
		t.Errorf("shard_failovers_total = %d, want 2", got)
	}
	fo := 0
	for _, ev := range col.Events() {
		if ev.Kind == obs.EvFailover {
			fo++
		}
	}
	if fo != 2 {
		t.Errorf("EvFailover events = %d, want 2", fo)
	}
	if got := col.Registry().Counter("shard_forwarded_total").Value(); got != st.Forwarded {
		t.Errorf("shard_forwarded_total = %d, want %d", got, st.Forwarded)
	}
}

// TestPlaneSubmitRacingClose pins the Submit/Close contract: submitters
// running concurrently with Close must terminate — Close sets each shard's
// closed flag without clearing its alive bit, so without the loop-top
// closed re-check Submit would re-pick the same closed-but-alive shard
// forever — and every racing submission must still be accounted (queued or
// starved), keeping conservation intact.
func TestPlaneSubmitRacingClose(t *testing.T) {
	nps := []*npu.NP{planeNP(t, 1, 51), planeNP(t, 1, 52)}
	plane, err := NewPlane(Config{NPs: nps, QueueCapacity: 64, BatchSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	const submitters = 4
	const perSubmitter = 2000
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			gen, err := network.NewFlowGenerator(32, int64(100+g))
			if err != nil {
				t.Error(err)
				return
			}
			<-start
			for i := 0; i < perSubmitter; i++ {
				plane.Submit(gen.Next())
			}
		}(g)
	}
	close(start)
	plane.Close() // races the submitters
	wg.Wait()
	st := plane.Stats()
	if st.Arrived != submitters*perSubmitter {
		t.Errorf("arrived %d, want %d", st.Arrived, submitters*perSubmitter)
	}
	if !st.Conserved() {
		t.Fatalf("not conserved after racing close: %+v", st)
	}
}

func TestPlaneConfigValidation(t *testing.T) {
	np := planeNP(t, 1, 41)
	if _, err := NewPlane(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewPlane(Config{NPs: []*npu.NP{np}}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewPlane(Config{NPs: []*npu.NP{np}, QueueCapacity: 8, MarkThreshold: 9}); err == nil {
		t.Error("mark threshold past capacity accepted")
	}
	if _, err := NewPlane(Config{NPs: []*npu.NP{nil}, QueueCapacity: 8}); err == nil {
		t.Error("nil NP accepted")
	}
	p, err := NewPlane(Config{NPs: []*npu.NP{np}, QueueCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if got := p.Submit(packet.NewGenerator(1).Next()); got != AdmitStarved {
		t.Errorf("Submit after Close = %v, want starved", got)
	}
	if !p.Stats().Conserved() {
		t.Error("post-close submission broke conservation")
	}
}
