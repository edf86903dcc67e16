package monitor

import "sdmmon/internal/mhash"

// Test-only access to the lazy DFA's internals, for the external
// differential tests.

// NewPackedWithCap is NewPacked with an explicit DFA state cap.
func NewPackedWithCap(p *PackedGraph, h mhash.Hasher, maxStates int) (*PackedMonitor, error) {
	return newPacked(p, h, maxStates)
}

// OnNFA reports whether the current packet has fallen back to the bitmap
// NFA.
func (m *PackedMonitor) OnNFA() bool { return m.nfa }

// DFAStates reports how many DFA states the monitor has built.
func (m *PackedMonitor) DFAStates() int { return m.states }
