package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// Self-tests of the benchmark: seeded inputs are reproducible, and the
// correctness oracle rejects planted faults. Run from dpbench/:
//
//	go test .

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.pool) != poolSize || len(b.pool) != poolSize {
			t.Fatalf("%s: pool sizes %d, %d", w.name, len(a.pool), len(b.pool))
		}
		for i := range a.pool {
			if !bytes.Equal(a.pool[i], b.pool[i]) || a.attack[i] != b.attack[i] || a.tenant[i] != b.tenant[i] {
				t.Fatalf("%s: packet %d differs between runs of one seed", w.name, i)
			}
		}
		ba, err := bundles(releases(w, a, 2, 6))
		if err != nil {
			t.Fatal(err)
		}
		bb, err := bundles(releases(w, b, 2, 6))
		if err != nil {
			t.Fatal(err)
		}
		for i := range ba {
			if !bytes.Equal(ba[i].Marshal(), bb[i].Marshal()) {
				t.Fatalf("%s: bundle %d differs between runs of one seed", w.name, i)
			}
		}
		c, err := generate(w, 8)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a.pool[0], c.pool[0]) && bytes.Equal(a.pool[1], c.pool[1]) {
			t.Errorf("%s: seeds 7 and 8 gave the same packets", w.name)
		}
	}
}

func TestGeneratedTraffic(t *testing.T) {
	for _, w := range workloads {
		in, err := generate(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		attacks := 0
		for i, pkt := range in.pool {
			if in.attack[i] {
				attacks++
			}
			if w.tenanted && (len(pkt) != tenantPkt || classifyTenant(pkt) != in.tenant[i] || in.tenant[i] != i%2) {
				t.Fatalf("%s: packet %d: %d bytes, class %d, tenant %d", w.name, i, len(pkt), classifyTenant(pkt), in.tenant[i])
			}
		}
		if want := 0; w.attacks {
			want = poolSize / attackEvery
			if attacks != want {
				t.Errorf("%s: %d attacks, want %d", w.name, attacks, want)
			}
		} else if attacks != want {
			t.Errorf("%s: %d attacks, want none", w.name, attacks)
		}
	}
}

// failed reports whether the run log has a FAIL line containing want.
func failed(log, want string) bool {
	for _, line := range strings.Split(log, "\n") {
		if strings.HasPrefix(line, "FAIL ") && strings.Contains(line, want) {
			return true
		}
	}
	return false
}

// shortRun runs a workload for a fraction of a second and returns its
// result and log.
func shortRun(t *testing.T, cfg config) (*result, string) {
	t.Helper()
	cfg.seed, cfg.seconds = 5, 0.6
	var log bytes.Buffer
	res, err := run(cfg, &log)
	if err != nil {
		t.Fatalf("%s: %v\n%s", cfg.w.name, err, log.String())
	}
	return res, log.String()
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// checkMetrics requires exactly the declared metrics, in their units.
func checkMetrics(t *testing.T, got map[string]metric, want map[string]string, positive bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics reported, %d declared", len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("metric %s not reported", name)
		case m.Unit != unit:
			t.Errorf("metric %s in %q, declared %q", name, m.Unit, unit)
		case positive && m.Value <= 0:
			t.Errorf("metric %s = %v, want > 0", name, m.Value)
		}
	}
}

func TestCleanRunPasses(t *testing.T) {
	w, _ := workloadByName("tenant_small")
	res, log := shortRun(t, config{w: w})
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("clean run failed: %+v\n%s", res, log)
	}
	endToEnd, _ := declared(t)
	checkMetrics(t, res.Metrics, endToEnd, true)
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	w, _ := workloadByName("tenant_small")
	res, log := shortRun(t, config{w: w, trace: true})
	if !res.Correct {
		t.Fatalf("traced run failed: %+v\n%s", res, log)
	}
	_, perLayer := declared(t)
	checkMetrics(t, res.Metrics, perLayer, false)
	if len(layerUnits) != len(perLayer) {
		t.Errorf("%d layer units, %d per-layer metrics declared", len(layerUnits), len(perLayer))
	}
}

func TestOracleRejectsMonitorsOff(t *testing.T) {
	w, _ := workloadByName("attack_rekey")
	res, log := shortRun(t, config{w: w, monitorsOff: true})
	if res.Correct || res.Failed != res.Attempted {
		t.Fatalf("run without monitors passed: %+v\n%s", res, log)
	}
	if !failed(log, "set-up 0: alarm check:") || !failed(log, "alarm check: attack packet not detected") {
		t.Fatalf("run without monitors did not fail the alarm check:\n%s", log)
	}
}

func TestOracleRejectsWithheldPacket(t *testing.T) {
	w, _ := workloadByName("tenant_small")
	res, log := shortRun(t, config{w: w, withhold: true})
	if res.Correct || res.Failed != res.Attempted {
		t.Fatalf("run with a withheld packet passed: %+v\n%s", res, log)
	}
	if !failed(log, "set-up 0: conservation:") {
		t.Fatalf("withheld packet did not fail conservation:\n%s", log)
	}
}
