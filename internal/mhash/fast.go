package mhash

// FastHasher wraps any Hasher with a direct-mapped instruction-hash cache
// keyed by the 32-bit instruction word itself. The monitor hashes every
// retired instruction, but the set of distinct instruction words a core
// executes is tiny (the static words of the installed binary, plus whatever
// an attack injects), so almost every lookup hits the cache and costs one
// array read instead of a full compression-tree evaluation.
//
// Keying matters for security: the cache is indexed by the *instruction
// word*, never by the program counter. The hash is a pure function of the
// word, so a word-keyed entry can never go stale — not even under the
// packet-derived-code attack, where the core executes attacker bytes out of
// packet memory and self-modified words appear at previously seen
// addresses. A PC-keyed cache would replay the hash of the word that used
// to live at that address and silently accept the substitution; a
// word-keyed cache hashes what actually retired. The equivalence tests pin
// this down on the E8 stack-smash payload.
//
// FastHasher is a concrete type: the monitor's inner loop calls Hash
// without interface dispatch. The wrapped Hasher is consulted only on cache
// misses. The zero allocation guarantee of the packet path includes this
// type: Hash never allocates.
type FastHasher struct {
	// CacheCounters are written on every lookup; NewFast allocates them,
	// and an owner running hashers on several cores may move them onto
	// cache lines of their own (copy the value, repoint the pointer).
	*CacheCounters

	inner Hasher
	width int
	shift uint
	// entries packs one cache line into a uint64:
	// bit 63 = valid, bits 8..39 = instruction word (tag), bits 0..7 = hash.
	entries []uint64
}

// CacheCounters count a FastHasher's lookups. They are diagnostics for
// sizing the cache, not part of the hardware model.
type CacheCounters struct {
	Hits, Misses uint64
}

const fastValid = 1 << 63

// DefaultFastCacheBits sizes the cache at 4096 entries (32 KiB): an order
// of magnitude more lines than the largest built-in application has
// distinct instruction words, so steady-state traffic sees a ~100% hit
// rate.
const DefaultFastCacheBits = 12

// NewFast builds a FastHasher over inner with 2^cacheBits direct-mapped
// entries. cacheBits is clamped to [4, 20].
func NewFast(inner Hasher, cacheBits int) *FastHasher {
	if cacheBits < 4 {
		cacheBits = 4
	}
	if cacheBits > 20 {
		cacheBits = 20
	}
	return &FastHasher{
		CacheCounters: &CacheCounters{},
		inner:         inner,
		width:         inner.Width(),
		shift:         uint(32 - cacheBits),
		entries:       make([]uint64, 1<<cacheBits),
	}
}

// NewFastDefault builds a FastHasher with the default cache geometry.
func NewFastDefault(inner Hasher) *FastHasher { return NewFast(inner, DefaultFastCacheBits) }

// Inner returns the wrapped hash unit.
func (f *FastHasher) Inner() Hasher { return f.inner }

// Width returns the hash width in bits.
func (f *FastHasher) Width() int { return f.width }

// Hash returns the W-bit hash of the instruction word. Hit path: one
// multiply, one shift, one array read. Miss path: delegate to the wrapped
// hasher and install the line (direct-mapped, so a colliding word simply
// evicts). Never allocates.
func (f *FastHasher) Hash(instr uint32) uint8 {
	// Fibonacci scrambling spreads the structured bit patterns of machine
	// code (opcode/funct fields cluster in the low and high bits) across
	// the index space.
	idx := (instr * 2654435761) >> f.shift
	e := f.entries[idx]
	if e&fastValid != 0 && uint32(e>>8) == instr {
		f.Hits++
		return uint8(e)
	}
	f.Misses++
	h := f.inner.Hash(instr)
	f.entries[idx] = fastValid | uint64(instr)<<8 | uint64(h)
	return h
}

// HitRate returns the fraction of lookups served from the cache.
func (f *FastHasher) HitRate() float64 {
	total := f.Hits + f.Misses
	if total == 0 {
		return 0
	}
	return float64(f.Hits) / float64(total)
}

// Flush invalidates every cache line (used by tests; the hardware analogue
// is a cache clear on re-installation, though even that is unnecessary —
// word-keyed entries remain valid across binaries under the same
// parameter).
func (f *FastHasher) Flush() {
	for i := range f.entries {
		f.entries[i] = 0
	}
	f.Hits, f.Misses = 0, 0
}

var _ Hasher = (*FastHasher)(nil)
