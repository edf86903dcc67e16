package monitor

import (
	"fmt"
	"math/bits"
	"slices"

	"sdmmon/internal/isa"
	"sdmmon/internal/mhash"
)

// PackedMonitor is the runtime monitor operating directly on the packed
// hardware layout. At install time (NewPacked) the node records are
// compiled into dense flat arrays — the bitmap NFA:
//
//   - match[h] is a bitmap of the nodes whose stored hash is h: ANDing it
//     with the current position bitmap yields the surviving candidates in
//     one word-parallel operation (the hardware's parallel comparators);
//   - succ holds one successor bitmap row per node (direct, branch and
//     indirect fan-outs all compile to the same representation), so
//     advancing is OR-ing the rows of the surviving candidates.
//
// The per-instruction step does not run the NFA, though. It runs the
// subset-construction DFA of the same graph, built lazily: a DFA state is
// a position set, state 0 is {entry}, and trans[s<<W|h] is the state the
// monitor moves to when it sees hash h in state s. Observe is that one
// table read plus a dead-state check — the software form of the paper's
// monitor memory, which holds the precomputed next states of every
// position. A transition is filled on first use by one bitmap step from
// the state's stored position set, so installing a monitor compiles
// nothing beyond the NFA arrays. Each state's popcount is stored with it,
// which keeps MaxPositions and Positions exact.
//
// The state count is capped in proportion to the graph's node count. A
// transition that would create a state past the cap continues the current
// packet on the bitmap NFA from the successor set, so verdicts stay exact
// on any graph; Reset re-enters the DFA.
//
// It is semantically identical to Monitor (proved by the equivalence and
// differential tests), and the NP uses it on the per-instruction path.
// When the hash unit is a *mhash.FastHasher the monitor calls it through a
// concrete pointer, keeping interface dispatch out of the inner loop. The
// fields written on every instruction live in PackedState, which an owner
// running several monitors concurrently can place on cache lines of its
// own (see internal/npu's per-core block).
type PackedMonitor struct {
	*PackedState

	p      *PackedGraph
	hasher mhash.Hasher
	fast   *mhash.FastHasher // non-nil when hasher is a FastHasher

	stride int        // words per bitmap
	match  [][]uint64 // hash value -> bitmap of nodes with that hash
	succ   []uint64   // node index -> successor bitmap row (stride words)

	// The lazy DFA. trans holds dfaUnfilled, dfaDead, or the next state
	// plus dfaFirst; a state's row is trans[s<<width : (s+1)<<width].
	width  uint
	trans  []uint16
	sets   []uint64 // state -> position bitmap (stride words)
	pop    []int32  // state -> popcount of its position set
	states int      // states built so far; len(pop) is the cap
	// index maps a position set to its state (open addressing, holding
	// state+1, 0 = empty), so a fill finds an existing state in O(stride).
	index      []int32
	indexShift uint

	// cur is the live position set while a packet runs on the NFA
	// fallback; next is the scratch bitmap of fills and NFA steps. Both
	// sit inside one padded buffer, since the fallback writes them per
	// instruction.
	cur, next []uint64
}

// PackedState is the part of a PackedMonitor written on every observed
// instruction: the DFA state, the fallback and alarm flags, and the
// lifetime counters. NewPacked allocates one; an owner that runs many
// monitors in parallel may move it into storage it pads against other
// cores (copy the value, then repoint the embedded pointer).
type PackedState struct {
	state   uint16 // current DFA state; meaningless while nfa is set
	nfa     bool   // this packet continues on the bitmap NFA (cur)
	alarmed bool
	alarmPC uint32

	Checked      uint64
	Alarms       uint64
	MaxPositions int
}

// Transition-table encoding.
const (
	dfaUnfilled = 0 // not computed yet
	dfaDead     = 1 // no candidate matches the hash: the alarm
	dfaFirst    = 2 // entries from here on hold next state + dfaFirst

	// maxDFAStates bounds the cap on large graphs, where the stored
	// position sets (cap × stride words) would otherwise grow with the
	// square of the node count.
	maxDFAStates = 1 << 12

	// padWords keeps the fallback bitmaps off their neighbours' cache
	// lines (two 64-byte lines on each side).
	padWords = 16
)

// dfaCap is the DFA state cap for a graph of n nodes. Subset construction
// from the entry of every built-in application stays within n+1 states;
// 2n+2 leaves headroom for branchier graphs.
func dfaCap(n int) int { return min(2*n+2, maxDFAStates) }

// NewPacked builds a packed monitor from the hardware layout, compiling the
// record stream into the flat NFA arrays described above and allocating
// the (empty) DFA transition table.
func NewPacked(p *PackedGraph, h mhash.Hasher) (*PackedMonitor, error) {
	return newPacked(p, h, dfaCap(p.Nodes()))
}

// newPacked is NewPacked with an explicit DFA state cap (tests force the
// NFA fallback through it).
func newPacked(p *PackedGraph, h mhash.Hasher, maxStates int) (*PackedMonitor, error) {
	if p.Width != h.Width() {
		return nil, fmt.Errorf("monitor: packed width %d != hash unit width %d", p.Width, h.Width())
	}
	n := p.Nodes()
	stride := (n + 63) / 64
	bufs := make([]uint64, 2*stride+3*padWords)
	m := &PackedMonitor{
		PackedState: &PackedState{},
		p:           p, hasher: h,
		stride: stride,
		match:  make([][]uint64, 1<<p.Width),
		succ:   make([]uint64, n*stride),
		width:  uint(p.Width),
		trans:  make([]uint16, maxStates<<p.Width),
		sets:   make([]uint64, maxStates*stride),
		pop:    make([]int32, maxStates),
		cur:    bufs[padWords : padWords+stride],
		next:   bufs[2*padWords+stride : 2*padWords+2*stride],
	}
	if fh, ok := h.(*mhash.FastHasher); ok {
		m.fast = fh
	}
	for i := range m.match {
		m.match[i] = make([]uint64, stride)
	}
	// The index stays at most half full, so probing always ends.
	indexBits := bits.Len(uint(2*maxStates - 1))
	m.index = make([]int32, 1<<indexBits)
	m.indexShift = uint(64 - indexBits)

	// Decode the node records once (hardware reads them per access; the
	// software model trades memory for speed) and compile them.
	r := p.bits.reader()
	type ind struct{ node, offset int }
	var inds []ind
	kind := make([]uint8, n)
	f0 := make([]uint64, n)
	f1 := make([]uint64, n)
	for i := 0; i < n; i++ {
		h := r.read(p.Width)
		kind[i] = uint8(r.read(2))
		f0[i] = r.read(p.IdxBits)
		f1[i] = r.read(p.IdxBits)
		setBit(m.match[h], i)
		if kind[i] == pkIndirect {
			inds = append(inds, ind{node: i, offset: int(f0[i]<<p.IdxBits | f1[i])})
		}
	}
	for i := 0; i < n; i++ {
		row := m.succ[i*stride : (i+1)*stride]
		switch kind[i] {
		case pkDirect:
			setBit(row, int(f0[i]))
		case pkBranch:
			setBit(row, int(f0[i]))
			setBit(row, int(f1[i]))
		case pkTerminal:
			// Matches, contributes no successors: the row stays zero.
		}
	}
	if len(inds) > 0 {
		fr := p.fanout.reader()
		total := p.fanoutEntries - len(inds)
		fan := make([]int32, total)
		for i := range fan {
			fan[i] = int32(fr.read(p.IdxBits))
		}
		counts := make([]int32, len(inds))
		for i := range counts {
			counts[i] = int32(fr.read(p.IdxBits))
		}
		off := int32(0)
		for i, x := range inds {
			if int32(x.offset) != off {
				return nil, fmt.Errorf("monitor: packed fan-out offset mismatch")
			}
			row := m.succ[x.node*stride : (x.node+1)*stride]
			for j := off; j < off+counts[i]; j++ {
				setBit(row, int(fan[j]))
			}
			off += counts[i]
		}
	}
	// State 0 is {entry}.
	setBit(m.next, p.Entry)
	m.intern(m.next)
	m.Reset()
	return m, nil
}

// Reset re-arms the monitor at the entry node (DFA state 0).
func (m *PackedMonitor) Reset() {
	st := m.PackedState
	st.state, st.nfa, st.alarmed = 0, false, false
	if st.MaxPositions == 0 {
		st.MaxPositions = 1
	}
}

func setBit(bm []uint64, i int) { bm[i/64] |= 1 << uint(i%64) }

func popcount(bm []uint64) int {
	n := 0
	for _, w := range bm {
		n += bits.OnesCount64(w)
	}
	return n
}

// Alarmed reports whether the alarm line is asserted.
func (m *PackedMonitor) Alarmed() bool { return m.alarmed }

// AlarmPC returns the diagnostic pc captured at alarm time.
func (m *PackedMonitor) AlarmPC() uint32 { return m.alarmPC }

// Counters returns the monitor's lifetime statistics.
func (m *PackedMonitor) Counters() (checked, alarms uint64, maxPositions int) {
	return m.Checked, m.Alarms, m.MaxPositions
}

// CacheStats reports the instruction-hash cache counters, or zeros when the
// monitor's hash unit is not a FastHasher.
func (m *PackedMonitor) CacheStats() (hits, misses uint64) {
	if m.fast == nil {
		return 0, 0
	}
	return m.fast.Hits, m.fast.Misses
}

// Observe consumes one retired instruction (cpu.TraceFunc signature). On a
// filled DFA transition it is one table read; everything else takes
// observeSlow. The steady-state path performs zero heap allocations.
func (m *PackedMonitor) Observe(pc uint32, w isa.Word) bool {
	st := m.PackedState
	if st.alarmed {
		return false
	}
	st.Checked++
	var h uint8
	if m.fast != nil {
		h = m.fast.Hash(uint32(w))
	} else {
		h = m.hasher.Hash(uint32(w))
	}
	if !st.nfa {
		if e := m.trans[int(st.state)<<m.width|int(h)]; e >= dfaFirst {
			st.state = e - dfaFirst
			return true
		}
	}
	return m.observeSlow(st, pc, h)
}

// observeSlow handles a dead transition, fills an unfilled one, and steps
// the NFA fallback.
func (m *PackedMonitor) observeSlow(st *PackedState, pc uint32, h uint8) bool {
	if st.nfa {
		if !m.step(m.cur, h) {
			return m.alarm(st, pc)
		}
		copy(m.cur, m.next)
		st.notePositions(popcount(m.cur))
		return true
	}
	t := int(st.state)<<m.width | int(h)
	if m.trans[t] == dfaDead {
		return m.alarm(st, pc)
	}
	if !m.step(m.set(int(st.state)), h) {
		m.trans[t] = dfaDead
		return m.alarm(st, pc)
	}
	s, ok := m.intern(m.next)
	if !ok {
		// Past the state cap: finish this packet on the NFA, starting
		// from the successor set.
		copy(m.cur, m.next)
		st.nfa = true
		st.notePositions(popcount(m.cur))
		return true
	}
	m.trans[t] = uint16(s + dfaFirst)
	st.state = uint16(s)
	// Each transition is filled once and always leads to the same set, so
	// noting the high-water mark here keeps MaxPositions exact.
	st.notePositions(int(m.pop[s]))
	return true
}

func (st *PackedState) notePositions(n int) {
	if n > st.MaxPositions {
		st.MaxPositions = n
	}
}

func (m *PackedMonitor) alarm(st *PackedState, pc uint32) bool {
	st.alarmed = true
	st.alarmPC = pc
	st.Alarms++
	return false
}

// step is one bitmap-NFA step: it writes into m.next the successors of
// the positions in cur whose stored hash is h, and reports whether any
// position matched (a matched terminal contributes no successors, so the
// set may be empty and the next instruction alarms).
func (m *PackedMonitor) step(cur []uint64, h uint8) bool {
	hb := m.match[h]
	next := m.next
	clear(next)
	matched := false
	stride := m.stride
	for wi, cw := range cur {
		// Word-parallel comparison: candidates whose stored hash equals
		// the reported hash.
		bw := cw & hb[wi]
		if bw == 0 {
			continue
		}
		matched = true
		base := wi * 64
		for bw != 0 {
			idx := base + bits.TrailingZeros64(bw)
			bw &= bw - 1
			row := m.succ[idx*stride : (idx+1)*stride]
			for k, v := range row {
				next[k] |= v
			}
		}
	}
	return matched
}

// set returns state s's stored position bitmap.
func (m *PackedMonitor) set(s int) []uint64 { return m.sets[s*m.stride : (s+1)*m.stride] }

// intern returns the state whose position set is bm, adding it if the cap
// allows; ok is false when bm is new and the table is full. It never
// allocates.
func (m *PackedMonitor) intern(bm []uint64) (s int, ok bool) {
	h := uint64(14695981039346656037)
	for _, w := range bm {
		h = (h ^ w) * 1099511628211
	}
	mask := len(m.index) - 1
	i := int(h >> m.indexShift)
	for ; m.index[i] != 0; i = (i + 1) & mask {
		if s := int(m.index[i] - 1); slices.Equal(m.set(s), bm) {
			return s, true
		}
	}
	if m.states == len(m.pop) {
		return 0, false
	}
	s = m.states
	m.states++
	copy(m.set(s), bm)
	m.pop[s] = int32(popcount(bm))
	m.index[i] = int32(s + 1)
	return s, true
}

// Positions returns the current candidate count.
func (m *PackedMonitor) Positions() int {
	if m.nfa {
		return popcount(m.cur)
	}
	return int(m.pop[m.state])
}
