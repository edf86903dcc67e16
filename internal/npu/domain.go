package npu

// Protection domains (DESIGN.md §17): the per-NP half of the multi-tenant
// trusted layer. A domain is an exclusive set of core slots owned by one
// tenant; the trusted domain manager (internal/tenant) assigns the
// partition once with SetDomains and then performs every install, stage,
// commit, rollback, and quarantine through the *Domain entry points below.
// Each set-wide operation has one body over a core set (installOn,
// stageOn, commitOn, rollbackOn, abortOn): the untenanted name passes
// every core, the *Domain name passes exactly the cores the domain owns,
// and the one per-core domain call, QuarantineDomain, refuses any core
// the domain does not own. This is the Sanctum-style discipline: the
// mapping lives in one small trusted layer, and nothing a tenant does —
// including its own upgrade traffic — can reach another tenant's slots.
// Per-domain statistics accumulate alongside the NP aggregate so a
// tenant's health is observable without reading (or perturbing) anyone
// else's numbers.

import (
	"errors"
	"fmt"
)

// Domain access errors.
var (
	// ErrDomainViolation: a *Domain call addressed a core the named domain
	// does not own. The operation is refused with no state change.
	ErrDomainViolation = errors.New("npu: core outside caller's protection domain")
	// ErrUnknownDomain: the named domain is not in the current partition.
	ErrUnknownDomain = errors.New("npu: unknown protection domain")
)

// DomainSpec names one protection domain and the cores it owns.
type DomainSpec struct {
	Name  string
	Cores []int
}

// SetDomains installs a core partition: each listed domain owns its cores
// exclusively; cores not listed anywhere stay in the root domain "". The
// call replaces any previous partition and zeroes the per-domain stat
// accounts (the NP aggregate is untouched). It is a trusted-layer setup
// operation: call it before the partition takes traffic, not concurrently
// with a domain being re-partitioned mid-drain.
func (np *NP) SetDomains(specs []DomainSpec) error {
	n := len(np.slots)
	slotDomain := make([]int, n)
	domains := make([]string, 1, len(specs)+1)
	seen := map[string]bool{"": true}
	for _, sp := range specs {
		if sp.Name == "" {
			return fmt.Errorf("npu: domain name must be non-empty")
		}
		if seen[sp.Name] {
			return fmt.Errorf("npu: duplicate domain %q", sp.Name)
		}
		if len(sp.Cores) == 0 {
			return fmt.Errorf("npu: domain %q owns no cores", sp.Name)
		}
		seen[sp.Name] = true
		idx := len(domains)
		domains = append(domains, sp.Name)
		for _, c := range sp.Cores {
			if c < 0 || c >= n {
				return fmt.Errorf("npu: domain %q: core %d out of range", sp.Name, c)
			}
			if slotDomain[c] != 0 {
				return fmt.Errorf("npu: core %d claimed by both %q and %q",
					c, domains[slotDomain[c]], sp.Name)
			}
			slotDomain[c] = idx
		}
	}
	// batchMu orders the swap against the batch engine's participant scan;
	// statsMu against the per-domain stat folds and name lookups.
	np.batchMu.Lock()
	np.statsMu.Lock()
	np.domains = domains
	np.slotDomain = slotDomain
	np.domStats = make([]Stats, len(domains))
	np.statsMu.Unlock()
	np.batchMu.Unlock()
	return nil
}

// Domains lists the current partition's domain names, root ("") first.
func (np *NP) Domains() []string {
	np.statsMu.Lock()
	defer np.statsMu.Unlock()
	return append([]string(nil), np.domains...)
}

// DomainOf reports the domain owning a core ("" = root).
func (np *NP) DomainOf(coreID int) (string, error) {
	if coreID < 0 || coreID >= len(np.slots) {
		return "", fmt.Errorf("npu: core %d out of range", coreID)
	}
	np.statsMu.Lock()
	defer np.statsMu.Unlock()
	return np.domains[np.slotDomain[coreID]], nil
}

// DomainCores lists the cores a domain owns, ascending.
func (np *NP) DomainCores(name string) ([]int, error) {
	np.statsMu.Lock()
	defer np.statsMu.Unlock()
	idx := np.domainIdxLocked(name)
	if idx < 0 {
		return nil, fmt.Errorf("npu: %w: %q", ErrUnknownDomain, name)
	}
	var cores []int
	for c, d := range np.slotDomain {
		if d == idx {
			cores = append(cores, c)
		}
	}
	return cores, nil
}

// domainIdxLocked resolves a domain name to its index, -1 when unknown.
// Call with statsMu held.
func (np *NP) domainIdxLocked(name string) int {
	for i, d := range np.domains {
		if d == name {
			return i
		}
	}
	return -1
}

// domainIdx resolves a domain name to its index.
func (np *NP) domainIdx(name string) (int, error) {
	np.statsMu.Lock()
	defer np.statsMu.Unlock()
	idx := np.domainIdxLocked(name)
	if idx < 0 {
		return 0, fmt.Errorf("npu: %w: %q", ErrUnknownDomain, name)
	}
	return idx, nil
}

// checkDomain is the ownership gate of the per-core domain calls.
func (np *NP) checkDomain(domain string, coreID int) error {
	if coreID < 0 || coreID >= len(np.slots) {
		return fmt.Errorf("npu: core %d out of range", coreID)
	}
	np.statsMu.Lock()
	defer np.statsMu.Unlock()
	idx := np.domainIdxLocked(domain)
	if idx < 0 {
		return fmt.Errorf("npu: %w: %q", ErrUnknownDomain, domain)
	}
	if owner := np.slotDomain[coreID]; owner != idx {
		return fmt.Errorf("npu: domain %q, core %d owned by %q: %w",
			domain, coreID, np.domains[owner], ErrDomainViolation)
	}
	return nil
}

// ownedCores is DomainCores for an install or stage, which must land
// somewhere: a domain owning no cores (a root domain fully partitioned
// away) is refused.
func (np *NP) ownedCores(domain string) ([]int, error) {
	cores, err := np.DomainCores(domain)
	if err == nil && len(cores) == 0 {
		err = fmt.Errorf("npu: domain %q owns no cores", domain)
	}
	return cores, err
}

// InstallDomainAll installs one bundle on every core the domain owns,
// transactionally (see installOn). Cores outside the domain are never
// touched.
func (np *NP) InstallDomainAll(domain, name string, binary, graph []byte, param uint32) error {
	cores, err := np.ownedCores(domain)
	if err != nil {
		return err
	}
	return np.installOn(cores, name, binary, graph, param)
}

// StageInstallDomainAll stages one bundle on every core the domain owns;
// preparation happens for every core before any shadow slot is written.
func (np *NP) StageInstallDomainAll(domain, name string, binary, graph []byte, param uint32) error {
	cores, err := np.ownedCores(domain)
	if err != nil {
		return err
	}
	return np.stageOn(cores, name, binary, graph, param)
}

// CommitDomainAll commits every core the domain owns, all-or-nothing
// within the domain: if any owned core has nothing staged, no owned core
// is cut over. Other domains' staged bundles are invisible to the check
// and untouched by the commit.
func (np *NP) CommitDomainAll(domain string) (uint64, error) {
	cores, err := np.DomainCores(domain)
	if err != nil {
		return 0, err
	}
	return np.commitOn(cores)
}

// RollbackDomainAll rolls back every core the domain owns, all-or-nothing
// within the domain.
func (np *NP) RollbackDomainAll(domain string) (uint64, error) {
	cores, err := np.DomainCores(domain)
	if err != nil {
		return 0, err
	}
	return np.rollbackOn(cores)
}

// AbortStagedDomain discards staged bundles on every core the domain owns.
func (np *NP) AbortStagedDomain(domain string) error {
	cores, err := np.DomainCores(domain)
	if err != nil {
		return err
	}
	np.abortOn(cores)
	return nil
}

// QuarantineDomain is Quarantine gated on domain ownership: a tenant's
// responder can isolate its own cores and no one else's.
func (np *NP) QuarantineDomain(domain string, coreID int) error {
	if err := np.checkDomain(domain, coreID); err != nil {
		return err
	}
	return np.Quarantine(coreID)
}

// StatsDomain returns the domain's stat account: the outcomes of exactly
// the packets that ran on its cores since the partition was installed.
// With no partition installed, the root domain "" reads as the NP
// aggregate.
func (np *NP) StatsDomain(name string) (Stats, error) {
	np.statsMu.Lock()
	defer np.statsMu.Unlock()
	idx := np.domainIdxLocked(name)
	if idx < 0 {
		return Stats{}, fmt.Errorf("npu: %w: %q", ErrUnknownDomain, name)
	}
	if len(np.domains) == 1 {
		return np.stats, nil
	}
	return np.domStats[idx], nil
}

// HealthyDomain reports whether at least one core the domain owns can take
// traffic — the per-lane health probe of the shard plane's failover logic.
// An unknown domain is never healthy. With no partition installed, the
// root domain "" is every core.
func (np *NP) HealthyDomain(name string) bool {
	idx, err := np.domainIdx(name)
	return err == nil && np.available(idx) > 0
}

// AvailableCoresDomain counts the domain's loaded, non-quarantined cores.
func (np *NP) AvailableCoresDomain(name string) (int, error) {
	idx, err := np.domainIdx(name)
	if err != nil {
		return 0, err
	}
	return np.available(idx), nil
}

// available counts the loaded, non-quarantined cores of one domain (-1:
// every core). It takes each slot's lock, so it is safe to call while the
// NP is processing.
func (np *NP) available(domIdx int) int {
	np.statsMu.Lock()
	owners := np.slotDomain // SetDomains swaps the slice, never edits it
	np.statsMu.Unlock()
	n := 0
	for coreID, s := range np.slots {
		if domIdx >= 0 && owners[coreID] != domIdx {
			continue
		}
		s.mu.Lock()
		if s.available() {
			n++
		}
		s.mu.Unlock()
	}
	return n
}
