package npu

// This file is the NP's face toward a multi-NP traffic plane
// (internal/shard): a batch-drain entry point that reports per-batch
// outcomes instead of per-packet results. Its race-safe health probe,
// HealthyDomain, lives with the other domain calls in domain.go.

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

// DrainBatchDomainRelease runs one batch through the batch engine on the
// cores of one protection domain (domain.go) and summarizes its fate. It
// is the NP's one drain entry: a shard worker drains each lane of its
// ingress with it, and a rollout's health sample measures a domain with
// it. With no partition installed, the root domain "" is every core.
//
// qdepth is the backlog the congestion-management applications see, and
// the returned error keeps ProcessBatch's semantics (first per-packet
// error, or ErrNoCoreAvailable when the batch could not finish). A
// fully-quarantined domain reports ErrNoCoreAvailable even while other
// domains' cores stay healthy — which is what lets the shard plane fail
// over one tenant's lane without disturbing the card's other tenants.
//
// The outcome is built from this batch's own merged stat delta — not a
// Stats() before/after window — so concurrent traffic on the same NP (a
// rollout's health sample batching against a live line card) cannot leak
// into the caller's accounting. The ECNMarked tally comes from inside the
// batch engine: each worker counts its own CE-marked forwards as they
// retire. The drain path keeps no per-packet results, so it allocates no
// results slice and copies no outputs.
//
// The batch engine copies every input into core packet memory before
// executing it and drops its references to the batch before returning.
// release (if non-nil) is invoked exactly once at that point — after the
// engine's last read of the inputs, before the outcome is accounted —
// which is the earliest instant a zero-copy ingress (internal/shard) can
// recycle the buffers backing pkts. Callers must not touch the buffers
// from the callback onward on this goroutine's behalf.
func (np *NP) DrainBatchDomainRelease(domain string, pkts [][]byte, qdepth int, release func()) (BatchOutcome, error) {
	idx, err := np.domainIdx(domain)
	if err != nil {
		if release != nil {
			release()
		}
		return BatchOutcome{Unprocessed: len(pkts)}, err
	}
	_, d, ecnMarked, err := np.processBatch(pkts, qdepth, idx, false)
	if release != nil {
		release()
	}
	return BatchOutcome{
		Processed:   d.Processed,
		Forwarded:   d.Forwarded,
		Dropped:     d.Dropped,
		Alarms:      d.Alarms,
		Faults:      d.Faults,
		ECNMarked:   ecnMarked,
		Cycles:      d.Cycles,
		Unprocessed: len(pkts) - int(d.Processed),
	}, err
}
