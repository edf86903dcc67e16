package npu

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sdmmon/internal/apps"
	"sdmmon/internal/cpu"
	"sdmmon/internal/obs"
)

// ProcessBatch runs a batch of packets across the NP's cores concurrently —
// one goroutine per core (inline when only one core takes part), each with
// its own CPU, memory, hash unit and monitor, exactly like the hardware's
// parallelism. Workers claim packets from a shared atomic cursor
// (packet-level load balancing with no channel traffic); results keep
// their input order: results[i] is the fate of pkts[i].
//
// Output bytes are copied into a per-NP arena that is reused across
// batches, so the per-packet path performs no heap allocations in steady
// state; see Result for the lifetime of the Packet slices.
//
// Error semantics: a packet that cannot be processed (e.g. it exceeds the
// packet memory window) leaves its zero-valued Result in place and the
// first such error is returned alongside the full results slice. Statistics
// for every packet that *was* processed are always merged into the NP's
// aggregate stats, error or not — partial work never vanishes from the
// counters.
//
// Concurrent ProcessBatch calls on the same NP serialize on batchMu (the
// batch engine's state is single-owner), so a management-plane batch — a
// rollout health sample, say — can run against an NP that a shard worker
// is draining. Result.Packet slices are only valid until the next batch.
func (np *NP) ProcessBatch(pkts [][]byte, qdepth int) ([]Result, error) {
	results, _, _, err := np.processBatch(pkts, qdepth, -1, true)
	return results, err
}

// batchRun is the state one batch's workers share. The NP owns one and
// reuses it under batchMu (arena, offsets and per-core stat deltas
// amortize to zero allocations), so a batch that runs inline on a single
// core allocates nothing at all.
type batchRun struct {
	pkts    [][]byte
	qdepth  int
	results []Result // nil on the drain path, which keeps no outputs
	arena   []byte
	offs    []int
	deltas  []Stats
	cores   []int // the cores taking part in this batch

	cursor   atomic.Int64
	ecn      atomic.Uint64
	errMu    sync.Mutex
	firstErr error
	wg       sync.WaitGroup
}

// processBatch is the shared batch engine. keep selects ProcessBatch's
// per-packet results (outputs copied into the reused arena); the drain
// path passes false and gets nil results, skipping both the results slice
// and the output copies. It additionally returns the merged stat delta of
// exactly this batch, which is how DrainBatchDomainRelease accounts a
// batch without a Stats() before/after window that concurrent traffic on
// the same NP would pollute, and the batch's CE-marked forward count,
// which each worker tallies from its own outputs as they retire.
//
// domIdx restricts the batch to the cores of one protection domain
// (domain.go); -1 runs on every core. The loaded/available probes count
// only participating cores, so a tenant whose domain is fully quarantined
// sees ErrNoCoreAvailable even while other tenants' cores are healthy.
func (np *NP) processBatch(pkts [][]byte, qdepth int, domIdx int, keep bool) ([]Result, Stats, uint64, error) {
	results, merged, ecn, err := np.runBatch(pkts, qdepth, domIdx, keep)
	// Yield once per batch. A shard worker draining a saturated ring
	// never parks otherwise, so a control-plane goroutine woken by one of
	// the batch's slot-lock releases (a Commit waiting for its packet
	// boundary) would wait for the scheduler's next preemption: with two
	// saturated drain loops on two CPUs a commit took 8–20 ms instead of
	// ~0.1 ms.
	runtime.Gosched()
	return results, merged, ecn, err
}

// runBatch is processBatch's work, under batchMu.
func (np *NP) runBatch(pkts [][]byte, qdepth int, domIdx int, keep bool) ([]Result, Stats, uint64, error) {
	np.batchMu.Lock()
	defer np.batchMu.Unlock()
	b := &np.run
	b.cores = b.cores[:0]
	loaded := 0
	for id, s := range np.slots {
		if domIdx >= 0 && np.slotDomain[id] != domIdx {
			continue
		}
		s.mu.Lock()
		if s.loaded {
			loaded++
		}
		if s.available() {
			b.cores = append(b.cores, id)
		}
		s.mu.Unlock()
	}
	if loaded == 0 {
		return nil, Stats{}, 0, ErrNoAppInstalled
	}
	if len(b.cores) == 0 {
		return nil, Stats{}, 0, ErrNoCoreAvailable
	}

	b.pkts, b.qdepth, b.results = pkts, qdepth, nil
	if keep {
		b.results = make([]Result, len(pkts))
		// Arena sizing: output length equals input length, so the
		// per-result regions are known up front and workers copy into
		// disjoint slices.
		if len(b.offs) < len(pkts)+1 {
			b.offs = make([]int, len(pkts)+1)
		}
		b.offs[0] = 0
		for i, p := range pkts {
			b.offs[i+1] = b.offs[i] + len(p)
		}
		if total := b.offs[len(pkts)]; cap(b.arena) < total {
			b.arena = make([]byte, total)
		}
	}
	if len(b.deltas) != len(np.slots) {
		b.deltas = make([]Stats, len(np.slots))
	}
	clear(b.deltas)
	b.cursor.Store(0)
	b.ecn.Store(0)
	b.firstErr = nil

	// Batch latency is measured only when a collector is attached: the
	// clock reads bracket the fan-out/fan-in, not the per-packet path.
	var batchStart time.Time
	if np.batchLat != nil {
		batchStart = time.Now()
	}
	if len(b.cores) == 1 {
		// One participating core: no fan-out to pay for.
		np.work(b, b.cores[0])
	} else {
		b.wg.Add(len(b.cores))
		for _, id := range b.cores {
			go func(id int) {
				defer b.wg.Done()
				np.work(b, id)
			}(id)
		}
		b.wg.Wait()
	}
	// Merge per-core deltas unconditionally: packets processed before or
	// after an errored one stay visible in the aggregate statistics (and in
	// each core's domain account). The stats mutex is taken once per batch.
	merged := np.mergeDeltas(b.deltas)
	if np.batchLat != nil {
		np.batchLat.Observe(time.Since(batchStart).Seconds())
	}
	firstErr := b.firstErr
	// Every worker quarantined mid-batch: the unclaimed tail was never
	// processed. Claimed packets are always processed before the claim
	// loop re-checks quarantine, so the cursor bounds the loss exactly.
	if n := int(b.cursor.Load()); n < len(pkts) && firstErr == nil {
		firstErr = fmt.Errorf("npu: %d packets unprocessed: %w", len(pkts)-n, ErrNoCoreAvailable)
	}
	results := b.results
	// Drop the batch's references: the caller may recycle pkts at once.
	b.pkts, b.results = nil, nil
	return results, merged, b.ecn.Load(), firstErr
}

// work is one core's claim loop over the batch's shared cursor.
func (np *NP) work(b *batchRun, coreID int) {
	slot := np.slots[coreID]
	d := &b.deltas[coreID]
	var ecn uint64
	for {
		// A core quarantined mid-batch stops claiming packets; the shared
		// cursor hands the remainder to the other workers. The slot lock
		// orders this read against concurrent commits/rollbacks (which may
		// lift a quarantine) as well as this worker's own writes.
		slot.mu.Lock()
		q := slot.sup.quarantined
		slot.mu.Unlock()
		if q {
			break
		}
		i := int(b.cursor.Add(1)) - 1
		if i >= len(b.pkts) {
			break
		}
		res, err := processOnSlot(slot, coreID, b.pkts[i], b.qdepth, np.cfg.MonitorsEnabled, d)
		if err != nil {
			b.errMu.Lock()
			if b.firstErr == nil {
				b.firstErr = err
			}
			b.errMu.Unlock()
			continue
		}
		// res.Packet aliases this core's output buffer, which only this
		// core's next packet overwrites.
		if res.Verdict == apps.VerdictForward && !res.Detected && !res.Faulted &&
			len(res.Packet) > 1 && res.Packet[1]&0x3 == 0x3 {
			ecn++
		}
		if b.results != nil {
			// Copy the output into this packet's arena region so every
			// result in the batch stays valid at once.
			dst := b.arena[b.offs[i]:b.offs[i+1]]
			copy(dst, res.Packet)
			res.Packet = dst
			b.results[i] = res
		}
	}
	b.ecn.Add(ecn)
}

// add accumulates d into s.
func (s *Stats) add(d *Stats) {
	s.Processed += d.Processed
	s.Forwarded += d.Forwarded
	s.Dropped += d.Dropped
	s.Alarms += d.Alarms
	s.Faults += d.Faults
	s.WatchdogTrips += d.WatchdogTrips
	s.Quarantines += d.Quarantines
	s.Cycles += d.Cycles
}

// processOnSlot is the per-core packet path shared by ProcessOn (via the
// stats pointer indirection) and ProcessBatch. It holds the slot lock for
// the duration of the packet, so a concurrent Commit/Rollback drains the
// in-flight packet and cuts over at the boundary — no packet ever executes
// against a mixed binary/monitor/hasher image. The lock is per-core and
// uncontended in steady state; the path still performs zero heap
// allocations, and the returned Result.Packet aliases the core's output
// buffer.
func processOnSlot(slot *coreSlot, coreID int, pkt []byte, qdepth int, monitors bool, stats *Stats) (Result, error) {
	if len(pkt) > apps.MemSize-apps.PktBase {
		return Result{}, fmt.Errorf("npu: packet length %d exceeds the %d-byte packet memory window",
			len(pkt), apps.MemSize-apps.PktBase)
	}
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if monitors {
		slot.mon.Reset()
	}
	// Deferred tail of the previous packet's recovery: wipe the forensic
	// trace once the core takes new traffic (the dump stays readable
	// between the alarm and this packet).
	if slot.resetTrace {
		if slot.tracer != nil {
			slot.tracer.Reset()
		}
		slot.resetTrace = false
	}
	res := slot.core.Process(pkt, qdepth)

	out := Result{Core: coreID, Verdict: res.Verdict, Packet: res.Packet, Cycles: res.Cycles}
	stats.Processed++
	stats.Cycles += res.Cycles
	slot.cyc.Observe(float64(res.Cycles))
	event := false
	switch {
	case res.Exc != nil && monitors && slot.mon.Alarmed():
		out.Detected = true
		out.Verdict = apps.VerdictDrop
		stats.Alarms++
		stats.Dropped++
		event = true
		slot.ring.Emit(obs.EvAlarm, slot.mon.AlarmPC(), res.Cycles)
	case res.Exc != nil:
		out.Faulted = true
		out.Verdict = apps.VerdictDrop
		stats.Faults++
		if res.Exc.Kind == cpu.ExcCycleLimit {
			stats.WatchdogTrips++
			slot.ring.Emit(obs.EvWatchdog, 0, res.Cycles)
		} else {
			slot.ring.Emit(obs.EvFault, 0, res.Cycles)
		}
		stats.Dropped++
		event = true
	case res.Verdict == apps.VerdictForward:
		stats.Forwarded++
	default:
		stats.Dropped++
	}
	if event {
		// §2.1 recovery, eagerly at the alarm/fault boundary: packet
		// dropped (above), registers cleared with PC back at the entry
		// point, monitor reset. All fixed-size state — no allocation.
		slot.core.Recover()
		if monitors {
			slot.mon.Reset()
		}
		slot.resetTrace = true
		slot.ring.Emit(obs.EvRecover, 0, 0)
	}
	if slot.sup.record(event) {
		stats.Quarantines++
		slot.ring.Emit(obs.EvQuarantine, 0, 0)
	}
	return out, nil
}
