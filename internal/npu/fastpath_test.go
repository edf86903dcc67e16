package npu

import (
	"bytes"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"sdmmon/internal/apps"
	"sdmmon/internal/monitor"
)

// TestCoreBlockLayout pins the per-core block's layout: the hot state
// starts on a 64-byte boundary of the block, the block is a whole number
// of 64-byte lines, and at least two lines of padding fence the hot state
// on each side. A field added to cpu.State, monitor.PackedState or
// mhash.CacheCounters keeps this true by construction; this test catches
// an edit to the block itself that would let two cores' hot state share
// a line again.
func TestCoreBlockLayout(t *testing.T) {
	var b coreBlock
	start := unsafe.Offsetof(b.coreHot)
	end := start + unsafe.Sizeof(b.coreHot)
	size := unsafe.Sizeof(b)
	if start%cacheLine != 0 || size%cacheLine != 0 {
		t.Fatalf("hot state at offset %d in a %d-byte block: not on %d-byte boundaries", start, size, cacheLine)
	}
	if start < 2*cacheLine || size-end < 2*cacheLine {
		t.Fatalf("hot state [%d, %d) in a %d-byte block: padding under %d bytes", start, end, size, 2*cacheLine)
	}

	// Installation really places each core's state in a block: the CPU
	// registers and the monitor state sit at the block's relative offsets.
	np := allocNP(t, 2, false)
	for id, slot := range np.slots {
		cpuAt := uintptr(unsafe.Pointer(slot.core.CPU().State))
		monAt := uintptr(unsafe.Pointer(slot.mon.(*monitor.PackedMonitor).PackedState))
		if monAt-cpuAt != unsafe.Offsetof(b.mon)-unsafe.Offsetof(b.cpu) {
			t.Fatalf("core %d: CPU and monitor state are not in one per-core block", id)
		}
	}
}

// TestDrainBatchAllocsFlat: the drain path keeps no per-packet results,
// so a 64-packet batch costs exactly the allocations of a 1-packet batch
// (none at all when one core takes part and the batch runs inline), and
// no bytes per packet. That holds for the root domain of an unpartitioned
// NP and for either side of a partition alike: resolving the domain costs
// nothing.
func TestDrainBatchAllocsFlat(t *testing.T) {
	pkts := BenchPackets(64, 41, 2)
	split := []DomainSpec{{Name: "a", Cores: []int{0}}}
	cases := []struct {
		name    string
		cores   int
		domains []DomainSpec
		domain  string
		inline  bool // exactly one core takes part
	}{
		{"1 core", 1, nil, "", true},
		{"2 cores", 2, nil, "", false},
		{"partitioned domain", 2, split, "a", true},
		{"root domain beside a partition", 2, split, "", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			np := allocNP(t, c.cores, false)
			if c.domains != nil {
				if err := np.SetDomains(c.domains); err != nil {
					t.Fatal(err)
				}
			}
			drain := func(batch [][]byte) {
				if _, err := np.DrainBatchDomainRelease(c.domain, batch, 0, nil); err != nil {
					t.Fatal(err)
				}
			}
			drain(pkts) // warm the hash caches and DFA tables
			one := testing.AllocsPerRun(200, func() { drain(pkts[:1]) })
			full := testing.AllocsPerRun(200, func() { drain(pkts) })
			if one != full {
				t.Fatalf("%.1f allocs for a 1-packet batch, %.1f for 64", one, full)
			}
			if c.inline && full != 0 {
				t.Fatalf("inline single-core drain allocates %.1f objects per batch", full)
			}
			var m0, m1 runtime.MemStats
			const batches = 100
			runtime.ReadMemStats(&m0)
			for i := 0; i < batches; i++ {
				drain(pkts)
			}
			runtime.ReadMemStats(&m1)
			perPkt := float64(m1.TotalAlloc-m0.TotalAlloc) / (batches * float64(len(pkts)))
			if perPkt > 8 {
				t.Fatalf("drain path allocates %.1f B/packet", perPkt)
			}
		})
	}
}

// TestHashCacheStatsRace reads the hash-cache counters while a drain
// loop writes them. Run under -race (make test-fastpath): the slot lock
// orders the read against the packet path.
func TestHashCacheStatsRace(t *testing.T) {
	np := allocNP(t, 2, false)
	pkts := BenchPackets(64, 42, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, err := np.DrainBatchDomainRelease("", pkts, 0, nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var last uint64
	for reads := 0; ; reads++ {
		select {
		case <-done:
			if hits, _ := np.HashCacheStats(); hits == 0 || reads == 0 {
				t.Fatalf("%d hits after %d concurrent reads", hits, reads)
			}
			return
		default:
		}
		hits, misses := np.HashCacheStats()
		if hits+misses < last {
			t.Fatalf("lookup count went backwards: %d -> %d", last, hits+misses)
		}
		last = hits + misses
	}
}

// TestCommitUnderSaturatedDrain: with every CPU busy draining, a live
// re-key still cuts over at a packet boundary promptly, because the batch
// engine yields once per batch. Without the yield the committer waited
// for the scheduler's preemption tick: a median of 8–20 ms on two CPUs.
func TestCommitUnderSaturatedDrain(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	var nps []*NP
	for i := 0; i < workers; i++ {
		nps = append(nps, allocNP(t, 1, false))
	}
	bin, g := makeBundle(t, apps.IPv4CM(), 0xBEEF)
	pkts := BenchPackets(8, 43, 1)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, np := range nps {
		wg.Add(1)
		go func(np *NP) {
			defer wg.Done()
			for !stop.Load() {
				if _, err := np.DrainBatchDomainRelease("", pkts, 0, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(np)
	}
	lat := make([]time.Duration, 41)
	for i := range lat {
		np := nps[i%len(nps)]
		t0 := time.Now()
		if err := np.StageInstallAll("ipv4cm", bin, g, 0xBEEF); err != nil {
			t.Fatal(err)
		}
		if _, err := np.CommitAll(); err != nil {
			t.Fatal(err)
		}
		lat[i] = time.Since(t0)
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	slices.Sort(lat)
	if p50 := lat[len(lat)/2]; p50 > 5*time.Millisecond {
		t.Fatalf("median re-key under saturated drain %v, want under 5ms", p50)
	}
}

// TestDifferentialFuzzSeeds runs FuzzProcessPacket's seed corpus, twice
// over and interleaved with benign traffic, through an NP on the fast
// path (lazy-DFA PackedMonitor) and one on the reference path (map-based
// Monitor): results, alarm PCs and monitor counters must be identical.
func TestDifferentialFuzzSeeds(t *testing.T) {
	fast, err := fuzzNPWith(Config{Cores: 1, MonitorsEnabled: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := fuzzNPWith(Config{Cores: 1, MonitorsEnabled: true, Reference: true})
	if err != nil {
		t.Fatal(err)
	}
	seeds := fuzzSeeds()
	var stream [][]byte
	for round := 0; round < 2; round++ {
		stream = append(stream, seeds...)
		stream = append(stream, BenchPackets(8, int64(round), round+1)...)
	}
	alarms := 0
	for i, pkt := range stream {
		fr, ferr := fast.ProcessOn(0, pkt, i)
		rr, rerr := ref.ProcessOn(0, pkt, i)
		if (ferr == nil) != (rerr == nil) {
			t.Fatalf("packet %d: error %v vs reference %v", i, ferr, rerr)
		}
		if fr.Verdict != rr.Verdict || fr.Detected != rr.Detected || fr.Faulted != rr.Faulted ||
			fr.Cycles != rr.Cycles || !bytes.Equal(fr.Packet, rr.Packet) {
			t.Fatalf("packet %d: %+v vs reference %+v", i, fr, rr)
		}
		if fr.Detected {
			alarms++
			if fpc, rpc := fast.slots[0].mon.AlarmPC(), ref.slots[0].mon.AlarmPC(); fpc != rpc {
				t.Fatalf("packet %d: alarm pc %#x vs reference %#x", i, fpc, rpc)
			}
		}
		fc, fa, fm, _ := fast.MonitorStats(0)
		rc, ra, rm, _ := ref.MonitorStats(0)
		if fc != rc || fa != ra || fm != rm {
			t.Fatalf("packet %d: monitor (%d, %d, %d) vs reference (%d, %d, %d)", i, fc, fa, fm, rc, ra, rm)
		}
	}
	if alarms == 0 {
		t.Fatal("the seed corpus raised no alarm: the attack seed went untested")
	}
	if fast.Stats() != ref.Stats() {
		t.Fatalf("stats %+v vs reference %+v", fast.Stats(), ref.Stats())
	}
}
