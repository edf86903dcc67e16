package npu

import (
	"unsafe"

	"sdmmon/internal/cpu"
	"sdmmon/internal/mhash"
	"sdmmon/internal/monitor"
)

// cacheLine is the coherence granule the per-core block is laid out
// against. The padding is two lines on each side: the adjacent-line
// prefetcher of common x86 parts pulls lines in 128-byte pairs.
const cacheLine = 64

// coreHot is everything the packet path writes on every retired
// instruction of one core: the CPU's registers and counters, the
// monitor's DFA state and counters, and the hash cache's hit/miss
// counters.
type coreHot struct {
	cpu  cpu.State
	mon  monitor.PackedState
	hash mhash.CacheCounters
}

// coreBlock holds one core's coreHot on cache lines of its own. Cores run
// in parallel (one shard worker per line card, one goroutine per core in
// a batch), and without the padding the heap packs two cores' counters
// and registers into shared lines, so every instruction retired on one
// core invalidates a line the other is writing. The hot fields start and
// end on 64-byte boundaries of the block and are fenced by 128 bytes on
// each side, so no other object can share their lines wherever the heap
// places the block.
type coreBlock struct {
	_ [2 * cacheLine]byte
	coreHot
	_ [(cacheLine-unsafe.Sizeof(coreHot{})%cacheLine)%cacheLine + 2*cacheLine]byte
}

// adopt moves the per-instruction state of one installation image's CPU,
// and of its packed monitor and hash cache when the image has them, into
// b. Each component keeps working unchanged through its state pointer.
func (b *coreBlock) adopt(c *cpu.CPU, m *monitor.PackedMonitor, f *mhash.FastHasher) {
	b.cpu, c.State = *c.State, &b.cpu
	if m != nil {
		b.mon, m.PackedState = *m.PackedState, &b.mon
	}
	if f != nil {
		b.hash, f.CacheCounters = *f.CacheCounters, &b.hash
	}
}
