package shard

// Lock-free ingress machinery for the line cards: a bounded Vyukov-style
// ring buffer carrying pooled packet buffers, and the arena that recycles
// those buffers once the NP has consumed a batch. FireGuard (PAPERS.md)
// decouples its monitored pipeline from the checkers through hardware
// queues; this file is that decoupling in software — producers never take
// a lock to hand a packet to a shard worker, and the steady-state path
// allocates nothing.
//
// Memory model (who owns a packet buffer when — DESIGN.md §16):
//
//	arena free list → Submit (copies the caller's bytes in, may CE-mark
//	the copy) → ingress ring → shard worker batch → NP batch engine
//	(DrainBatchDomainRelease: the engine DMAs the bytes into core memory and
//	never retains the input slice) → back to the arena free list.
//
// Exactly one stage owns a buffer at any instant, which is why no
// per-slot lock is needed: the ring's sequence numbers are the ownership
// hand-off, and the single drain worker means dequeues never contend.

import "sync/atomic"

// cacheLinePad separates the producer- and consumer-owned cursors so a
// submitter hammering tail never invalidates the cache line the worker
// reads head from (false sharing is the classic SPSC/MPSC ring killer).
type cacheLinePad [64]byte

// pbuf is one arena-owned packet buffer. data keeps its backing array
// across recycles (append into data[:0]), so a warmed pool serves any
// packet the NPs accept without allocating.
type pbuf struct {
	data []byte
}

// ringSlot pairs a sequence number with the published buffer. The
// sequence is the Vyukov bounded-queue protocol: seq == pos means the
// slot is free for the producer claiming position pos, seq == pos+1
// means the slot holds that position's element for the consumer, and the
// atomic store of seq is the release that publishes buf.
type ringSlot struct {
	seq atomic.Uint64
	buf *pbuf
}

// bufRing is a bounded multi-producer ring of packet buffers (capacity
// rounded up to a power of two). It serves two roles: the MPSC ingress
// queue of a line card (many Submit goroutines, one drain worker) and
// the MPMC free list of an arena. Enqueue never blocks — a full ring
// reports false and the caller tail-drops, exactly the admission
// semantics a bounded ingress queue wants.
type bufRing struct {
	mask  uint64
	slots []ringSlot
	_     cacheLinePad
	head  atomic.Uint64 // consumer cursor
	_     cacheLinePad
	tail  atomic.Uint64 // producer cursor
	_     cacheLinePad
}

func newBufRing(capacity int) *bufRing {
	n := 1
	for n < capacity {
		n <<= 1
	}
	r := &bufRing{mask: uint64(n - 1), slots: make([]ringSlot, n)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	return r
}

// Cap is the physical capacity (the rounded-up power of two).
func (r *bufRing) Cap() int { return len(r.slots) }

// Len is the instantaneous occupancy. Under concurrent traffic it is an
// approximation (the two cursors are read at different moments), clamped
// to [0, Cap] — exactly the fidelity admission control needs.
func (r *bufRing) Len() int {
	d := int64(r.tail.Load()) - int64(r.head.Load())
	if d < 0 {
		d = 0
	}
	if d > int64(len(r.slots)) {
		d = int64(len(r.slots))
	}
	return int(d)
}

// Empty reports whether the ring held nothing at the moment of the call.
func (r *bufRing) Empty() bool { return r.tail.Load() == r.head.Load() }

// Enqueue publishes b, or reports false if the ring is full. Safe for
// any number of concurrent producers.
func (r *bufRing) Enqueue(b *pbuf) bool {
	pos := r.tail.Load()
	for {
		s := &r.slots[pos&r.mask]
		switch d := int64(s.seq.Load()) - int64(pos); {
		case d == 0:
			// Slot free at this position: claim it by advancing tail.
			if r.tail.CompareAndSwap(pos, pos+1) {
				s.buf = b
				s.seq.Store(pos + 1) // release: publishes buf
				return true
			}
			pos = r.tail.Load()
		case d < 0:
			// The slot still holds the element from one lap ago: full.
			return false
		default:
			// Another producer claimed pos; chase the cursor.
			pos = r.tail.Load()
		}
	}
}

// Dequeue removes the oldest buffer, or returns nil if the ring is
// empty. Safe for concurrent consumers (the arena free list); on the
// ingress ring the shard worker is the only caller.
func (r *bufRing) Dequeue() *pbuf {
	pos := r.head.Load()
	for {
		s := &r.slots[pos&r.mask]
		switch d := int64(s.seq.Load()) - int64(pos+1); {
		case d == 0:
			if r.head.CompareAndSwap(pos, pos+1) {
				b := s.buf
				s.buf = nil
				// Free the slot for the producer one lap ahead.
				s.seq.Store(pos + uint64(len(r.slots)))
				return b
			}
			pos = r.head.Load()
		case d < 0:
			return nil
		default:
			pos = r.head.Load()
		}
	}
}

// arenaBufBytes sizes a fresh buffer's backing array. Buffers grow on
// demand and keep their growth across recycles, so this only has to
// cover the common packet, not the largest.
const arenaBufBytes = 512

// arenaPrefill caps how many buffers an arena allocates eagerly. A plane
// sized for a huge queue (the bench harness sets capacity = the whole
// packet budget) warms the rest on first use; after one pass through the
// free list the working set is fully pooled and the path allocates
// nothing.
const arenaPrefill = 1024

// arena is a line card's recycling pool of packet buffers. Get falls
// back to a fresh allocation when the pool runs transiently dry (more
// producers in flight than the sizing slack) — correct, just not free.
// Put drops the buffer to the GC if the free list is full, which can
// only happen after such fallback allocations.
type arena struct {
	free *bufRing
}

// newArena builds a pool whose free list can hold the card's whole
// physical working set: every ring slot plus a drained batch in flight
// plus slack for producers mid-copy.
func newArena(capacity, batch int) *arena {
	a := &arena{free: newBufRing(capacity + batch + 64)}
	n := a.free.Cap()
	if n > arenaPrefill {
		n = arenaPrefill
	}
	for i := 0; i < n; i++ {
		a.free.Enqueue(&pbuf{data: make([]byte, 0, arenaBufBytes)})
	}
	return a
}

func (a *arena) Get() *pbuf {
	if b := a.free.Dequeue(); b != nil {
		return b
	}
	return &pbuf{data: make([]byte, 0, arenaBufBytes)}
}

func (a *arena) Put(b *pbuf) {
	b.data = b.data[:0]
	a.free.Enqueue(b)
}
