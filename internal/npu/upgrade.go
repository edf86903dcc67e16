package npu

import (
	"errors"
	"fmt"

	"sdmmon/internal/obs"
)

// Live upgrades (DESIGN.md §10): the paper's secure dynamic installation
// (§3) pushes new bundles to routers that are already serving traffic, but a
// destructive Install replaces the live slot in place — one bad byte and the
// core is down until a good bundle arrives. The two-phase path separates the
// expensive, fallible work from the cutover: StageInstall deserializes,
// packs, and self-checks the new bundle into a shadow slot while the old
// bundle keeps forwarding packets; Commit swaps the shadow in at a packet
// boundary (the per-core lock drains the in-flight packet, so no packet ever
// sees mixed binary/monitor/hasher state) and retains the displaced version;
// Rollback swaps the retained version back just as atomically. Abort throws
// a staged bundle away without touching the live slot.

// Upgrade lifecycle errors.
var (
	// ErrNothingStaged: Commit was called with no staged bundle on the core.
	ErrNothingStaged = errors.New("npu: nothing staged")
	// ErrNothingRetained: Rollback was called but the core has no retained
	// previous version (never committed, or freshly installed).
	ErrNothingRetained = errors.New("npu: no retained version to roll back to")
)

// commitCycles is the simulated cost of one core's atomic cutover: the
// staged image is already resident (program memory, monitor bank, hash
// parameter all loaded at staging time), so the commit is a bank select plus
// the fixed core reset sequence — the same constant the resident-application
// Switch path charges.
const commitCycles = 64

// StageInstall prepares a bundle into a core's shadow slot: deserialize the
// binary and graph, compile the packed monitor, build the hash unit, and run
// the graph/binary self-check — all without touching the live slot, which
// keeps serving packets. A later StageInstall replaces the staged bundle; a
// quarantined core may stage (that is how it gets healed) but stays out of
// dispatch until the commit re-introduces it on probation.
func (np *NP) StageInstall(coreID int, name string, binary, graph []byte, param uint32) error {
	if coreID < 0 || coreID >= len(np.slots) {
		return fmt.Errorf("npu: core %d out of range", coreID)
	}
	return np.stageOn([]int{coreID}, name, binary, graph, param)
}

// StageInstallAll stages the same bundle on every core (see stageOn).
func (np *NP) StageInstallAll(name string, binary, graph []byte, param uint32) error {
	return np.stageOn(np.allCores(), name, binary, graph, param)
}

// stageOn is the one staging body: preparation happens for every listed
// core before any shadow slot is written, so a failure leaves all of them
// exactly as they were.
func (np *NP) stageOn(cores []int, name string, binary, graph []byte, param uint32) error {
	prepared, err := np.prepareFor(cores, name, binary, graph, param)
	if err != nil {
		return err
	}
	for i, coreID := range cores {
		slot := np.slots[coreID]
		slot.mu.Lock()
		slot.staged = prepared[i]
		slot.mu.Unlock()
		slot.ring.Emit(obs.EvStage, 0, 0)
		np.mStages.Inc()
	}
	return nil
}

// Commit cuts one core over to its staged bundle at a packet boundary: the
// per-core lock waits for the in-flight packet (if any) to retire, the
// staged image becomes live, and the displaced image is retained for
// Rollback. A quarantined core re-enters dispatch on probation, exactly like
// a destructive re-install. Returns the simulated cutover cost in core
// cycles. Safe to call while ProcessBatch is running.
func (np *NP) Commit(coreID int) (uint64, error) {
	if coreID < 0 || coreID >= len(np.slots) {
		return 0, fmt.Errorf("npu: core %d out of range", coreID)
	}
	slot := np.slots[coreID]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.staged == nil {
		return 0, fmt.Errorf("npu: core %d: %w", coreID, ErrNothingStaged)
	}
	if slot.loaded {
		slot.prev = slot.liveImage()
	}
	slot.setLive(slot.staged)
	slot.staged = nil
	slot.sup.onInstall()
	slot.ring.Emit(obs.EvCommit, 0, commitCycles)
	np.mCommits.Inc()
	return commitCycles, nil
}

// CommitAll commits every core, all-or-nothing (see commitOn).
func (np *NP) CommitAll() (uint64, error) { return np.commitOn(np.allCores()) }

// commitOn is the one set-wide commit body, all-or-nothing over the listed
// cores: if any has nothing staged, none is cut over, and cores outside
// the set are neither checked nor touched. Cores commit one at a time,
// each at its own packet boundary — the data plane never pauses set-wide,
// and a packet in flight on core 1 while core 0 commits still sees a
// consistent (old or new, never mixed) image on whichever core runs it.
func (np *NP) commitOn(cores []int) (uint64, error) {
	for _, coreID := range cores {
		if !np.HasStaged(coreID) {
			return 0, fmt.Errorf("npu: core %d: %w", coreID, ErrNothingStaged)
		}
	}
	var cycles uint64
	for _, coreID := range cores {
		c, err := np.Commit(coreID)
		if err != nil {
			return cycles, err
		}
		cycles += c
	}
	return cycles, nil
}

// AbortStaged discards a core's staged bundle (no-op if nothing is staged).
// The live slot is untouched.
func (np *NP) AbortStaged(coreID int) error {
	if coreID < 0 || coreID >= len(np.slots) {
		return fmt.Errorf("npu: core %d out of range", coreID)
	}
	slot := np.slots[coreID]
	slot.mu.Lock()
	hadStaged := slot.staged != nil
	slot.staged = nil
	slot.mu.Unlock()
	if hadStaged {
		slot.ring.Emit(obs.EvAbort, 0, 0)
		np.mAborts.Inc()
	}
	return nil
}

// AbortAllStaged discards every core's staged bundle.
func (np *NP) AbortAllStaged() { np.abortOn(np.allCores()) }

// abortOn discards the staged bundles of the listed cores.
func (np *NP) abortOn(cores []int) {
	for _, coreID := range cores {
		_ = np.AbortStaged(coreID)
	}
}

// Rollback restores a core's retained previous version at a packet boundary,
// swapping it with the current live image (so a roll-forward is possible by
// rolling back again). The retained image keeps its scratch memory — the
// hardware model is a bank switch, not a reload. The core returns to
// dispatch on probation if it was quarantined. Returns the simulated cutover
// cost in cycles.
func (np *NP) Rollback(coreID int) (uint64, error) {
	if coreID < 0 || coreID >= len(np.slots) {
		return 0, fmt.Errorf("npu: core %d out of range", coreID)
	}
	slot := np.slots[coreID]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.prev == nil {
		return 0, fmt.Errorf("npu: core %d: %w", coreID, ErrNothingRetained)
	}
	displaced := slot.liveImage()
	s := slot.prev
	slot.setLive(s)
	slot.prev = displaced
	slot.sup.onInstall()
	slot.ring.Emit(obs.EvRollback, 0, commitCycles)
	np.mRollbacks.Inc()
	return commitCycles, nil
}

// RollbackAll rolls every core back, all-or-nothing (see rollbackOn).
func (np *NP) RollbackAll() (uint64, error) { return np.rollbackOn(np.allCores()) }

// rollbackOn is the one set-wide rollback body, all-or-nothing over the
// listed cores: if any has no retained version, none is touched.
func (np *NP) rollbackOn(cores []int) (uint64, error) {
	for _, coreID := range cores {
		if !np.CanRollback(coreID) {
			return 0, fmt.Errorf("npu: core %d: %w", coreID, ErrNothingRetained)
		}
	}
	var cycles uint64
	for _, coreID := range cores {
		c, err := np.Rollback(coreID)
		if err != nil {
			return cycles, err
		}
		cycles += c
	}
	return cycles, nil
}

// HasStaged reports whether a core has a staged (uncommitted) bundle.
func (np *NP) HasStaged(coreID int) bool {
	if coreID < 0 || coreID >= len(np.slots) {
		return false
	}
	slot := np.slots[coreID]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	return slot.staged != nil
}

// CanRollback reports whether a core retains a previous version.
func (np *NP) CanRollback(coreID int) bool {
	if coreID < 0 || coreID >= len(np.slots) {
		return false
	}
	slot := np.slots[coreID]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	return slot.prev != nil
}

// StagedApp reports the application name staged on a core, if any.
func (np *NP) StagedApp(coreID int) (string, bool) {
	if coreID < 0 || coreID >= len(np.slots) {
		return "", false
	}
	slot := np.slots[coreID]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.staged == nil {
		return "", false
	}
	return slot.staged.appName, true
}

// RetainedApp reports the application name of a core's retained previous
// version, if any.
func (np *NP) RetainedApp(coreID int) (string, bool) {
	if coreID < 0 || coreID >= len(np.slots) {
		return "", false
	}
	slot := np.slots[coreID]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.prev == nil {
		return "", false
	}
	return slot.prev.appName, true
}
