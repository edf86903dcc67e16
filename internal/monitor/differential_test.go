package monitor_test

import (
	"bytes"
	"math/rand"
	"testing"

	"sdmmon/internal/apps"
	"sdmmon/internal/attack"
	"sdmmon/internal/isa"
	"sdmmon/internal/mhash"
	"sdmmon/internal/monitor"
	"sdmmon/internal/packet"
)

// The differential tests run identical packets on two cores loaded with
// the same program: one watched by the lazy-DFA PackedMonitor behind a
// FastHasher (the NP's fast path), the other by the map-based reference
// Monitor behind the uncached hash unit. Every step's decision and
// candidate count, and every packet's verdict, output, cycles, exception,
// alarm, alarm PC and lifetime counters must agree. The campaign families
// are covered in internal/campaign and the FuzzProcessPacket seeds in
// internal/npu, both on whole NPs.

// step is one observed instruction: its pc, the monitor's decision and the
// candidate count afterwards.
type step struct {
	pc        uint32
	ok        bool
	positions int
}

type pair struct {
	dfa              *monitor.PackedMonitor
	ref              *monitor.Monitor
	dfaCore, refCore *apps.Core
	dfaSteps         []step
	refSteps         []step
	// fellBackAt is the step of the current packet at which the DFA
	// monitor moved to the NFA, or -1.
	fellBackAt int
}

// newPair builds the two cores for app under param; maxStates > 0 caps
// the DFA.
func newPair(t *testing.T, app *apps.App, param uint32, maxStates int) *pair {
	t.Helper()
	prog, err := app.Program()
	if err != nil {
		t.Fatal(err)
	}
	g, err := monitor.Extract(prog, mhash.NewMerkle(param))
	if err != nil {
		t.Fatal(err)
	}
	pg, err := monitor.Pack(g)
	if err != nil {
		t.Fatal(err)
	}
	fast := mhash.NewFastDefault(mhash.NewMerkle(param))
	var dfa *monitor.PackedMonitor
	if maxStates > 0 {
		dfa, err = monitor.NewPackedWithCap(pg, fast, maxStates)
	} else {
		dfa, err = monitor.NewPacked(pg, fast)
	}
	if err != nil {
		t.Fatal(err)
	}
	ref, err := monitor.New(g, mhash.NewMerkle(param))
	if err != nil {
		t.Fatal(err)
	}
	p := &pair{dfa: dfa, ref: ref, dfaCore: apps.NewCore(prog), refCore: apps.NewCore(prog)}
	p.dfaCore.Trace = func(pc uint32, w isa.Word) bool {
		ok := dfa.Observe(pc, w)
		if p.fellBackAt < 0 && dfa.OnNFA() {
			p.fellBackAt = len(p.dfaSteps)
		}
		p.dfaSteps = append(p.dfaSteps, step{pc, ok, dfa.Positions()})
		return ok
	}
	p.refCore.Trace = func(pc uint32, w isa.Word) bool {
		ok := ref.Observe(pc, w)
		p.refSteps = append(p.refSteps, step{pc, ok, ref.Positions()})
		return ok
	}
	return p
}

// process runs pkt on both cores, applying the NP's recovery after an
// exception, and fails on any difference. It reports whether the monitors
// alarmed.
func (p *pair) process(t *testing.T, what string, pkt []byte, qdepth int) bool {
	t.Helper()
	p.dfa.Reset()
	p.ref.Reset()
	p.dfaSteps, p.refSteps, p.fellBackAt = p.dfaSteps[:0], p.refSteps[:0], -1
	dr := p.dfaCore.Process(pkt, qdepth)
	rr := p.refCore.Process(pkt, qdepth)
	if len(p.dfaSteps) != len(p.refSteps) {
		t.Fatalf("%s: %d observed steps vs reference %d", what, len(p.dfaSteps), len(p.refSteps))
	}
	for i := range p.dfaSteps {
		if p.dfaSteps[i] != p.refSteps[i] {
			t.Fatalf("%s step %d: %+v vs reference %+v", what, i, p.dfaSteps[i], p.refSteps[i])
		}
	}
	if dr.Verdict != rr.Verdict || dr.Cycles != rr.Cycles || !bytes.Equal(dr.Packet, rr.Packet) {
		t.Fatalf("%s: verdict %d cycles %d vs reference verdict %d cycles %d (outputs equal: %v)",
			what, dr.Verdict, dr.Cycles, rr.Verdict, rr.Cycles, bytes.Equal(dr.Packet, rr.Packet))
	}
	if (dr.Exc == nil) != (rr.Exc == nil) || dr.Exc != nil && *dr.Exc != *rr.Exc {
		t.Fatalf("%s: exception %v vs reference %v", what, dr.Exc, rr.Exc)
	}
	if p.dfa.Alarmed() != p.ref.Alarmed() || p.dfa.Alarmed() && p.dfa.AlarmPC() != p.ref.AlarmPC() {
		t.Fatalf("%s: alarm %v at %#x vs reference %v at %#x", what,
			p.dfa.Alarmed(), p.dfa.AlarmPC(), p.ref.Alarmed(), p.ref.AlarmPC())
	}
	dc, da, dm := p.dfa.Counters()
	rc, ra, rm := p.ref.Counters()
	if dc != rc || da != ra || dm != rm {
		t.Fatalf("%s: counters (checked %d, alarms %d, max %d) vs reference (%d, %d, %d)",
			what, dc, da, dm, rc, ra, rm)
	}
	if dr.Exc != nil {
		p.dfaCore.Recover()
		p.refCore.Recover()
	}
	return p.dfa.Alarmed()
}

// TestDifferentialApps covers every built-in application on benign
// traffic of varied shape, under several hash parameters.
func TestDifferentialApps(t *testing.T) {
	rng := rand.New(rand.NewSource(1301))
	for _, app := range apps.All() {
		for k := 0; k < 3; k++ {
			p := newPair(t, app, rng.Uint32(), 0)
			gen := packet.NewGenerator(rng.Int63())
			for i := 0; i < 60; i++ {
				gen.OptionWords = i % 5
				p.process(t, app.Name, gen.Next(), i%64)
			}
			if c, _, _ := p.dfa.Counters(); c == 0 {
				t.Fatalf("%s: nothing observed", app.Name)
			}
		}
	}
}

// attackPackets are the E8 stack smash and a second, packet-derived
// payload landing at the same packet-memory addresses (self-modified code
// as far as a PC-keyed cache could tell).
func attackPackets(t *testing.T) [][]byte {
	t.Helper()
	smash := attack.DefaultSmash()
	hijack, err := smash.HijackPayload()
	if err != nil {
		t.Fatal(err)
	}
	alt := []isa.Word{
		isa.Word(0x24020001), // li $v0, 1
		isa.Word(0x24420041), // addiu $v0, $v0, 0x41
		isa.Word(0x00421021), // addu $v0, $v0, $v0
		isa.Word(0x03E00008), // jr $ra
		isa.Word(0x00000000), // nop
	}
	var out [][]byte
	for _, code := range [][]isa.Word{hijack, alt} {
		pkt, err := smash.CraftPacket(code)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pkt)
	}
	return out
}

// TestDifferentialE8Attacks interleaves the attack packets with benign
// ipv4cm traffic: both monitors alarm on every attack, at the same pc.
func TestDifferentialE8Attacks(t *testing.T) {
	atk := attackPackets(t)
	rng := rand.New(rand.NewSource(1302))
	for trial := 0; trial < 8; trial++ {
		p := newPair(t, apps.IPv4CM(), rng.Uint32(), 0)
		gen := packet.NewGenerator(int64(trial))
		for i := 0; i < 40; i++ {
			gen.OptionWords = i % 3
			p.process(t, "benign", gen.Next(), 0)
			if i%4 == 3 && !p.process(t, "attack", atk[i/4%len(atk)], 0) {
				t.Fatalf("trial %d: attack %d not detected", trial, i/4%len(atk))
			}
		}
	}
}

// TestDifferentialStateCap forces the DFA state cap, from one state (only
// {entry}) up to past what ipv4cm needs, so packets fall back to the NFA
// in the middle of a packet; verdicts and counters stay exact and the
// next packet re-enters the DFA.
func TestDifferentialStateCap(t *testing.T) {
	atk := attackPackets(t)
	for _, maxStates := range []int{1, 2, 3, 5, 8, 13, 21, 34} {
		p := newPair(t, apps.IPv4CM(), 0xC0FFEE+uint32(maxStates), maxStates)
		gen := packet.NewGenerator(int64(maxStates))
		midPacket := 0
		for i := 0; i < 50; i++ {
			gen.OptionWords = i % 5
			pkt := gen.Next()
			if i%10 == 9 {
				pkt = atk[i/10%len(atk)]
			}
			p.process(t, "capped", pkt, i)
			if p.fellBackAt >= 0 && p.fellBackAt < len(p.dfaSteps)-1 {
				midPacket++
			}
			if p.dfa.DFAStates() > maxStates {
				t.Fatalf("cap %d: %d states built", maxStates, p.dfa.DFAStates())
			}
		}
		if midPacket == 0 {
			t.Fatalf("cap %d: no packet fell back to the NFA mid-packet", maxStates)
		}
	}
}
