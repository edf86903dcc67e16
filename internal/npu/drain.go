package npu

// This file is the NP's face toward a multi-NP traffic plane
// (internal/shard): a batch-drain entry point that reports per-batch
// outcomes instead of per-packet results, and a race-safe health probe the
// dispatcher can consult without owning the packet path.

// BatchOutcome summarizes one drained batch. Unlike ProcessBatch's result
// slice it exposes no per-packet data, so a queue drainer can account a
// batch without walking (or retaining) individual results.
type BatchOutcome struct {
	Processed uint64 // packets that ran on a core
	Forwarded uint64
	Dropped   uint64 // verdict + alarm + fault drops
	Alarms    uint64
	Faults    uint64
	// ECNMarked counts forwarded packets leaving with the CE mark set
	// (whether the application marked them under queue pressure or they
	// arrived pre-marked by upstream admission control).
	ECNMarked uint64
	Cycles    uint64
	// Unprocessed counts packets of this batch that never reached a core:
	// rejected before execution (oversize) or left unclaimed because every
	// core quarantined mid-batch. Processed + Unprocessed == len(batch).
	Unprocessed int
}

// DrainBatch runs one batch through the batch engine and summarizes its
// fate. It is the hook a shard worker drains its ingress queue with:
// qdepth is the backlog the congestion-management applications see, and
// the returned error keeps ProcessBatch's semantics (first per-packet
// error, or ErrNoCoreAvailable when the batch could not finish on a fully
// quarantined NP). The outcome is built from this batch's own merged stat
// delta — not a Stats() before/after window — so concurrent traffic on
// the same NP (a rollout's health sample batching against a live line
// card) cannot leak into the shard's accounting. The ECNMarked tally comes
// from inside the batch engine: each worker counts its own CE-marked
// forwards as they retire. The drain path keeps no per-packet results, so
// it allocates no results slice and copies no outputs.
func (np *NP) DrainBatch(pkts [][]byte, qdepth int) (BatchOutcome, error) {
	return np.DrainBatchRelease(pkts, qdepth, nil)
}

// DrainBatchRelease is DrainBatch with a buffer-return hook. The batch
// engine copies every input into core packet memory before executing it
// and drops its references to the batch before returning, so once
// processBatch comes back no reference to the pkts slices survives
// anywhere in the NP. release (if non-nil) is invoked exactly once at
// that point — after the engine's last read of the inputs, before the
// outcome is accounted — which is the earliest instant a zero-copy
// ingress (internal/shard) can recycle the buffers backing pkts without
// waiting for its own accounting to finish. Callers must not touch the
// buffers from the callback onward on this goroutine's behalf.
func (np *NP) DrainBatchRelease(pkts [][]byte, qdepth int, release func()) (BatchOutcome, error) {
	return np.drainBatch(pkts, qdepth, -1, release)
}

// DrainBatchDomain is DrainBatch restricted to the cores of one protection
// domain (domain.go): the batch runs only on slots the named domain owns,
// and a fully-quarantined domain reports ErrNoCoreAvailable even while
// other domains' cores stay healthy — which is what lets the shard plane
// fail over one tenant's lane without disturbing the card's other tenants.
func (np *NP) DrainBatchDomain(domain string, pkts [][]byte, qdepth int) (BatchOutcome, error) {
	return np.DrainBatchDomainRelease(domain, pkts, qdepth, nil)
}

// DrainBatchDomainRelease is DrainBatchDomain with DrainBatchRelease's
// buffer-return hook.
func (np *NP) DrainBatchDomainRelease(domain string, pkts [][]byte, qdepth int, release func()) (BatchOutcome, error) {
	idx, err := np.domainIdx(domain)
	if err != nil {
		if release != nil {
			release()
		}
		return BatchOutcome{Unprocessed: len(pkts)}, err
	}
	if len(np.Domains()) == 1 {
		idx = -1 // no partition installed: the root domain is the whole NP
	}
	return np.drainBatch(pkts, qdepth, idx, release)
}

func (np *NP) drainBatch(pkts [][]byte, qdepth int, domIdx int, release func()) (BatchOutcome, error) {
	_, d, ecnMarked, err := np.processBatch(pkts, qdepth, domIdx, false)
	if release != nil {
		release()
	}

	var o BatchOutcome
	o.Processed = d.Processed
	o.Forwarded = d.Forwarded
	o.Dropped = d.Dropped
	o.Alarms = d.Alarms
	o.Faults = d.Faults
	o.Cycles = d.Cycles
	o.ECNMarked = ecnMarked
	o.Unprocessed = len(pkts) - int(o.Processed)
	return o, err
}

// Healthy reports whether at least one core can take traffic. Unlike
// AvailableCores it takes each slot's lock, so it is safe to call while the
// NP is processing (the per-NP health probe of the shard plane's failover
// logic).
func (np *NP) Healthy() bool {
	for _, s := range np.slots {
		s.mu.Lock()
		ok := s.available()
		s.mu.Unlock()
		if ok {
			return true
		}
	}
	return false
}
