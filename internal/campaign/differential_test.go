package campaign

import (
	"bytes"
	"testing"

	"sdmmon/internal/npu"
)

// runOnPath runs one family's campaign with every shard NP on the fast
// monitor path (the lazy-DFA PackedMonitor behind a FastHasher) or the
// reference path (the map-based Monitor behind the uncached hasher), and
// returns the result with the NPs it ran on.
func runOnPath(t *testing.T, family string, reference bool) (*Result, []*npu.NP) {
	t.Helper()
	var nps []*npu.NP
	newNP = func(cfg npu.Config) (*npu.NP, error) {
		cfg.Reference = reference
		np, err := npu.New(cfg)
		nps = append(nps, np)
		return np, err
	}
	defer func() { newNP = npu.New }()
	r, err := RunCampaign(Config{Family: family, Seed: 3})
	if err != nil {
		t.Fatalf("%s (reference=%v): %v", family, reference, err)
	}
	return r, nps
}

// TestDifferentialMonitorCampaigns runs every campaign family — the five
// adversarial families and the three graded-response drills — once on
// each monitor path. The replay bytes (trajectory, incidents with their
// alarm PCs, accounting), every NP's stats (verdicts, alarms, cycles) and
// every core's monitor counters (Checked, Alarms, MaxPositions) must be
// identical.
func TestDifferentialMonitorCampaigns(t *testing.T) {
	var alarms uint64
	for _, family := range append(Families(), DrillFamilies()...) {
		fast, fastNPs := runOnPath(t, family, false)
		ref, refNPs := runOnPath(t, family, true)
		fb, err := fast.ReplayBytes()
		if err != nil {
			t.Fatal(err)
		}
		rb, err := ref.ReplayBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fb, rb) {
			t.Fatalf("%s: replay bytes differ between the DFA and reference monitors", family)
		}
		if len(fastNPs) != len(refNPs) {
			t.Fatalf("%s: %d vs %d NPs", family, len(fastNPs), len(refNPs))
		}
		var checked uint64
		for i := range fastNPs {
			if fs, rs := fastNPs[i].Stats(), refNPs[i].Stats(); fs != rs {
				t.Fatalf("%s NP %d: stats %+v vs reference %+v", family, i, fs, rs)
			}
			for core := 0; core < fastNPs[i].Cores(); core++ {
				fc, fa, fp, ferr := fastNPs[i].MonitorStats(core)
				rc, ra, rp, rerr := refNPs[i].MonitorStats(core)
				if (ferr == nil) != (rerr == nil) || fc != rc || fa != ra || fp != rp {
					t.Fatalf("%s NP %d core %d: monitor (checked %d, alarms %d, max %d, %v) vs reference (%d, %d, %d, %v)",
						family, i, core, fc, fa, fp, ferr, rc, ra, rp, rerr)
				}
				checked += fc
			}
			alarms += fastNPs[i].Stats().Alarms
		}
		if checked == 0 {
			t.Fatalf("%s: no instruction reached a monitor", family)
		}
	}
	if alarms == 0 {
		t.Fatal("no campaign raised an alarm: the attack side went untested")
	}
}
