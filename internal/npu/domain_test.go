package npu

// Protection-domain tests: partition validation, the domain-gated install
// path (cross-tenant installs must be refused), per-domain statistics,
// domain-restricted batch drains, and the per-instance metric namespace
// (two NPs on one collector keep disjoint series).

import (
	"errors"
	"testing"

	"sdmmon/internal/apps"
	"sdmmon/internal/obs"
	"sdmmon/internal/packet"
)

func domainNP(t *testing.T, cores int) *NP {
	t.Helper()
	np := newNP(t, cores, true)
	bin, g := makeBundle(t, apps.IPv4CM(), 0xD0)
	if err := np.InstallAll("ipv4cm", bin, g, 0xD0); err != nil {
		t.Fatal(err)
	}
	return np
}

func TestSetDomainsValidation(t *testing.T) {
	np := domainNP(t, 4)
	bad := [][]DomainSpec{
		{{Name: "", Cores: []int{0}}},
		{{Name: "a", Cores: []int{0}}, {Name: "a", Cores: []int{1}}},
		{{Name: "a", Cores: nil}},
		{{Name: "a", Cores: []int{4}}},
		{{Name: "a", Cores: []int{0}}, {Name: "b", Cores: []int{0}}},
	}
	for i, specs := range bad {
		if err := np.SetDomains(specs); err == nil {
			t.Errorf("case %d: SetDomains accepted an invalid partition", i)
		}
	}
	// A failed SetDomains must leave the previous (root-only) partition.
	if got := np.Domains(); len(got) != 1 || got[0] != "" {
		t.Errorf("failed SetDomains mutated the partition: %v", got)
	}

	if err := np.SetDomains([]DomainSpec{
		{Name: "a", Cores: []int{0, 1}},
		{Name: "b", Cores: []int{3}},
	}); err != nil {
		t.Fatal(err)
	}
	if d, _ := np.DomainOf(2); d != "" {
		t.Errorf("unlisted core 2 in domain %q, want root", d)
	}
	if d, _ := np.DomainOf(3); d != "b" {
		t.Errorf("core 3 in domain %q, want b", d)
	}
	cores, err := np.DomainCores("a")
	if err != nil || len(cores) != 2 || cores[0] != 0 || cores[1] != 1 {
		t.Errorf("DomainCores(a) = %v, %v", cores, err)
	}
	if _, err := np.DomainCores("ghost"); !errors.Is(err, ErrUnknownDomain) {
		t.Errorf("unknown domain error = %v", err)
	}
}

// TestCrossDomainInstallRefused is the domain gate's access-control
// check: a quarantine addressed through one domain may not reach a core
// another domain owns — the refusal is ErrDomainViolation with no state
// change — and a domain-wide install lands on exactly the domain's cores.
func TestCrossDomainInstallRefused(t *testing.T) {
	np := domainNP(t, 4)
	if err := np.SetDomains([]DomainSpec{
		{Name: "a", Cores: []int{0, 1}},
		{Name: "b", Cores: []int{2, 3}},
	}); err != nil {
		t.Fatal(err)
	}
	bin, g := makeBundle(t, apps.UDPEcho(), 0xE0)

	if err := np.QuarantineDomain("a", 2); !errors.Is(err, ErrDomainViolation) {
		t.Errorf("QuarantineDomain onto b's core: %v, want ErrDomainViolation", err)
	}
	if err := np.InstallDomainAll("ghost", "udpecho", bin, g, 0xE0); !errors.Is(err, ErrUnknownDomain) {
		t.Errorf("unknown domain install: %v, want ErrUnknownDomain", err)
	}
	// b's cores are untouched by all of the above.
	for _, core := range []int{2, 3} {
		if name, ok := np.AppOn(core); !ok || name != "ipv4cm" {
			t.Errorf("core %d app = %q, %v after refused cross-domain calls", core, name, ok)
		}
	}

	// The domain-wide install lands on exactly the domain's cores.
	if err := np.InstallDomainAll("a", "udpecho", bin, g, 0xE0); err != nil {
		t.Fatal(err)
	}
	for core := 0; core < 4; core++ {
		want := "ipv4cm"
		if core < 2 {
			want = "udpecho"
		}
		if name, _ := np.AppOn(core); name != want {
			t.Errorf("core %d runs %q after InstallDomainAll(a), want %q", core, name, want)
		}
	}
}

// TestDomainStagedCommitRollback drives the two-phase upgrade through the
// domain-gated entry points and checks the all-or-nothing guard.
func TestDomainStagedCommitRollback(t *testing.T) {
	np := domainNP(t, 4)
	if err := np.SetDomains([]DomainSpec{
		{Name: "a", Cores: []int{0, 1}},
		{Name: "b", Cores: []int{2, 3}},
	}); err != nil {
		t.Fatal(err)
	}
	bin, g := makeBundle(t, apps.UDPEcho(), 0xE1)

	// Nothing staged anywhere: the domain-wide commit must refuse.
	if _, err := np.CommitDomainAll("a"); !errors.Is(err, ErrNothingStaged) {
		t.Fatalf("CommitDomainAll with nothing staged: %v", err)
	}
	if err := np.StageInstallDomainAll("a", "udpecho", bin, g, 0xE1); err != nil {
		t.Fatal(err)
	}
	// b has nothing staged; a's staging must not be visible to b's commit.
	if _, err := np.CommitDomainAll("b"); !errors.Is(err, ErrNothingStaged) {
		t.Fatalf("CommitDomainAll(b) saw a's staged bundles: %v", err)
	}
	if _, err := np.CommitDomainAll("a"); err != nil {
		t.Fatal(err)
	}
	for core := 0; core < 4; core++ {
		want := "ipv4cm"
		if core < 2 {
			want = "udpecho"
		}
		if name, _ := np.AppOn(core); name != want {
			t.Errorf("core %d runs %q after CommitDomainAll(a), want %q", core, name, want)
		}
	}
	if _, err := np.RollbackDomainAll("a"); err != nil {
		t.Fatal(err)
	}
	for core := 0; core < 2; core++ {
		if name, _ := np.AppOn(core); name != "ipv4cm" {
			t.Errorf("core %d runs %q after RollbackDomainAll(a), want ipv4cm", core, name)
		}
	}
	if _, err := np.RollbackDomainAll("b"); !errors.Is(err, ErrNothingRetained) {
		t.Errorf("RollbackDomainAll(b) with nothing retained: %v", err)
	}
}

// TestDomainRestrictedBatchAndStats: DrainBatchDomainRelease runs only on
// the domain's cores, per-domain stat accounts partition the NP aggregate,
// and a fully-quarantined domain reports ErrNoCoreAvailable while its
// neighbors stay healthy.
func TestDomainRestrictedBatchAndStats(t *testing.T) {
	np := domainNP(t, 4)
	if err := np.SetDomains([]DomainSpec{
		{Name: "a", Cores: []int{0, 1}},
		{Name: "b", Cores: []int{2, 3}},
	}); err != nil {
		t.Fatal(err)
	}
	gen := packet.NewGenerator(7)
	batch := make([][]byte, 40)
	for i := range batch {
		batch[i] = gen.Next()
	}

	out, err := np.DrainBatchDomainRelease("a", batch, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Processed != 40 || out.Unprocessed != 0 {
		t.Fatalf("domain a drain: %+v", out)
	}
	sa, err := np.StatsDomain("a")
	if err != nil {
		t.Fatal(err)
	}
	sb, err := np.StatsDomain("b")
	if err != nil {
		t.Fatal(err)
	}
	if sa.Processed != 40 {
		t.Errorf("domain a processed %d, want 40", sa.Processed)
	}
	if sb.Processed != 0 {
		t.Errorf("domain b processed %d packets of a's traffic", sb.Processed)
	}
	if agg := np.Stats(); agg.Processed != 40 {
		t.Errorf("aggregate processed %d, want 40", agg.Processed)
	}

	// Wedge domain a; b keeps draining, a reports no cores.
	for _, core := range []int{0, 1} {
		if err := np.QuarantineDomain("a", core); err != nil {
			t.Fatal(err)
		}
	}
	if np.HealthyDomain("a") {
		t.Error("domain a healthy with both cores quarantined")
	}
	if !np.HealthyDomain("b") {
		t.Error("domain b lost health to a's quarantine")
	}
	if n, _ := np.AvailableCoresDomain("b"); n != 2 {
		t.Errorf("domain b has %d available cores, want 2", n)
	}
	if _, err := np.DrainBatchDomainRelease("a", batch, 0, nil); !errors.Is(err, ErrNoCoreAvailable) {
		t.Errorf("drain on wedged domain: %v, want ErrNoCoreAvailable", err)
	}
	if out, err := np.DrainBatchDomainRelease("b", batch, 0, nil); err != nil || out.Processed != 40 {
		t.Errorf("domain b drain after a wedged: %+v, %v", out, err)
	}
	if _, err := np.DrainBatchDomainRelease("ghost", batch, 0, nil); !errors.Is(err, ErrUnknownDomain) {
		t.Errorf("drain on unknown domain: %v", err)
	}
	if np.HealthyDomain("ghost") {
		t.Error("unknown domain reported healthy")
	}
}

// TestInstanceLabelsKeepSeriesDisjoint pins the metric-collision bug: two
// NPs sharing one obs.Collector used to write the same np_* and
// np_packet_cycles{core="N"} series. With distinct Config.Instance values
// every series carries an np="…" label, and traffic on one NP moves only
// its own series.
func TestInstanceLabelsKeepSeriesDisjoint(t *testing.T) {
	col := obs.New(64)
	mk := func(instance string) *NP {
		np, err := New(Config{Cores: 2, MonitorsEnabled: true, Obs: col, Instance: instance})
		if err != nil {
			t.Fatal(err)
		}
		bin, g := makeBundle(t, apps.IPv4CM(), 0xC0)
		if err := np.InstallAll("ipv4cm", bin, g, 0xC0); err != nil {
			t.Fatal(err)
		}
		return np
	}
	np0, np1 := mk("lc0"), mk("lc1")
	if np0.Instance() != "lc0" || np1.Instance() != "lc1" {
		t.Fatal("Instance() does not echo the config")
	}

	gen := packet.NewGenerator(3)
	for i := 0; i < 20; i++ {
		if _, err := np0.Process(gen.Next(), 0); err != nil {
			t.Fatal(err)
		}
	}

	snap := col.Registry().Snapshot()
	name0 := obs.Labeled("np_packets_processed_total", "np", "lc0")
	name1 := obs.Labeled("np_packets_processed_total", "np", "lc1")
	if got := snap.Counters[name0]; got != 20 {
		t.Errorf("%s = %d, want 20", name0, got)
	}
	if got := snap.Counters[name1]; got != 0 {
		t.Errorf("%s = %d after traffic on lc0 only, want 0", name1, got)
	}
	if _, ok := snap.Counters["np_packets_processed_total"]; ok {
		t.Error("bare (unlabeled) series present despite Instance being set")
	}
	// The per-core cycle histograms are disjoint too: installs on both NPs
	// register both series, but only lc0's accumulated observations.
	h0 := snap.Histograms[obs.Labeled("np_packet_cycles", "np", "lc0", "core", "0")]
	h1 := snap.Histograms[obs.Labeled("np_packet_cycles", "np", "lc1", "core", "0")]
	if h0.Count == 0 {
		t.Error("lc0 core-0 cycle histogram never observed")
	}
	if h1.Count != 0 {
		t.Errorf("lc1 core-0 cycle histogram observed %d packets of lc0's traffic", h1.Count)
	}

	// The byte-identical form of the same assertion, on the full slice.
	before := snap.FilterLabel("np", "lc1")
	for i := 0; i < 20; i++ {
		if _, err := np0.Process(gen.Next(), 0); err != nil {
			t.Fatal(err)
		}
	}
	after := col.Registry().Snapshot().FilterLabel("np", "lc1")
	if !snapshotsEqual(t, before, after) {
		t.Error("lc1's labeled slice moved under lc0's traffic")
	}
}

func snapshotsEqual(t *testing.T, a, b obs.Snapshot) bool {
	t.Helper()
	ja, err := a.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	return string(ja) == string(jb)
}

// TestDomainStatsFollowShardDrain: the domain account and the root
// aggregate stay consistent under the same batch engine the shard plane
// uses, including the reset on repartition.
func TestDomainStatsRepartitionResets(t *testing.T) {
	np := domainNP(t, 2)
	if err := np.SetDomains([]DomainSpec{{Name: "x", Cores: []int{0, 1}}}); err != nil {
		t.Fatal(err)
	}
	gen := packet.NewGenerator(11)
	batch := make([][]byte, 10)
	for i := range batch {
		batch[i] = gen.Next()
	}
	if _, err := np.DrainBatchDomainRelease("x", batch, 0, nil); err != nil {
		t.Fatal(err)
	}
	if s, _ := np.StatsDomain("x"); s.Processed != 10 {
		t.Fatalf("domain x processed %d, want 10", s.Processed)
	}
	// Repartition: domain accounts reset, the NP aggregate survives.
	if err := np.SetDomains([]DomainSpec{{Name: "y", Cores: []int{0, 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := np.StatsDomain("x"); !errors.Is(err, ErrUnknownDomain) {
		t.Error("stale domain still resolvable after repartition")
	}
	if s, _ := np.StatsDomain("y"); s.Processed != 0 {
		t.Errorf("fresh domain y inherited %d processed packets", s.Processed)
	}
	if agg := np.Stats(); agg.Processed != 10 {
		t.Errorf("aggregate lost history across repartition: %d", agg.Processed)
	}
}
