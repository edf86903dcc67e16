# SDMMon — build, test and reproduction targets.

GO ?= go
GOFMT ?= gofmt

.PHONY: all check build vet fmt-check test test-short test-race test-obs test-faults test-rollout test-shard test-threat test-fleet test-campaign test-tenant test-dpbench bench bench-ingress bench-tenant fuzz experiments examples verilog clean

all: check

# The default CI gate: build, static checks, full tests, the race
# detector over the concurrent packages, the observability layer, the
# fault-injection suite, the live-upgrade suite, the sharded traffic
# plane, the graded threat-response engine, the adversarial campaign
# corpus, the multi-tenant protection domains, and the data-plane
# benchmark module.
check: build vet fmt-check test test-race test-obs test-faults test-rollout test-shard test-threat test-fleet test-campaign test-tenant test-dpbench

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail if any file is not gofmt-clean.
fmt-check:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race detector over the packages with real goroutine concurrency (the
# ProcessBatch workers and the network-path pipeline).
test-race:
	$(GO) test -race ./internal/npu/... ./internal/network/...

# The observability layer under the race detector: event rings, the
# metrics registry, the exporters, and the stats/telemetry consistency
# tests in the packages that publish into it.
test-obs:
	$(GO) test -race ./internal/obs/...
	$(GO) test -race -run 'Obs|Telemetry|Stats|WireGroundTruth|RoundTrip|DoubleCount' \
		./internal/npu/... ./internal/network/... ./cmd/npsim/...

# The live-upgrade suite under the race detector: staged install and
# atomic cutover, canary rollout with auto-rollback, and the
# anti-downgrade sequence ledger.
test-rollout:
	$(GO) test -race -run 'Upgrade|Stage|Commit|Rollback|Rollout|Downgrade|Manifest|Sequence|Ledger|Replay' \
		./internal/seccrypto/... ./internal/npu/... ./internal/core/... ./internal/network/...

# The resilience suite under the race detector: fault injectors, core
# quarantine/recovery, and the retrying secure install.
test-faults:
	$(GO) test -race ./internal/fault/...
	$(GO) test -race -run 'FaultInjection|Supervisor|Quarantine|Recovery|Watchdog|Reliable|QueueSim' \
		./internal/npu/... ./internal/network/...

# The sharded traffic plane under the race detector (dispatch, admission
# control, failover, packet conservation, the lock-free ingress ring),
# plus the perf gates run without instrumentation so their numbers are
# undistorted: TestShardScalingGate (>= 1.6x simulated aggregate at 4
# shards vs 1) and TestIngressFastGate (>= 2x ring vs mutex hand-off).
test-shard:
	$(GO) test -race ./internal/shard/...
	$(GO) test -run 'ShardScalingGate|IngressFastGate' -count=1 ./internal/shard/

# The graded threat-response engine under the race detector: EWMA/FSM
# edge cases, the live-plane concurrent-drains test, the burst/ramp/drip
# drills on the campaign chassis (byte-identical incident records), the
# shard-side conservation drill with responses firing mid-traffic, and the
# npsim self-asserting threat drill end to end.
test-threat:
	$(GO) test -race ./internal/threat/...
	$(GO) test -race -run 'Threat' -count=1 ./internal/shard/... ./internal/campaign/...
	$(GO) run ./cmd/npsim -threat all > /dev/null

# The hierarchical control plane under the race detector (wave rollouts,
# partition-tolerant delivery, resume, rotation), plus the npsim drills
# end to end.
test-fleet:
	$(GO) test -race ./internal/fleet/...
	$(GO) run ./cmd/npsim -fleet all -routers 96 -seed 4 > /dev/null

# The adversarial campaign corpus under the race detector: the five
# attack families with byte-identical replay, the live concurrent-plane
# drill, the FreezeAt poisoning contrast, the fleet evasion drill, and
# the npsim self-asserting campaign drill end to end.
test-campaign:
	$(GO) test -race ./internal/campaign/...
	$(GO) test -race -run 'Campaign' -count=1 ./internal/shard/... ./internal/threat/... ./internal/fleet/...
	$(GO) run ./cmd/npsim -campaign all -seed 2 > /dev/null

# The multi-tenant protection domains under the race detector: the
# trusted domain manager (per-tenant ledgers, domain-gated installs,
# canaried tenant rollouts), the npu domain partition, the per-tenant
# dispatch/conservation/leakage tests in the shard plane, and the npsim
# two-tenant isolation drill end to end (gadget + noc at one tenant,
# bystander byte-identical to a no-attack control).
test-tenant:
	$(GO) test -race ./internal/tenant/...
	$(GO) test -race -run 'Tenant|Domain|Instance' -count=1 ./internal/npu/... ./internal/shard/... ./internal/campaign/...
	$(GO) run ./cmd/npsim -tenant > /dev/null

# The data-plane benchmark is a nested module, so the root ./... never
# compiles it; vet and test it here so an npu, shard or tenant API change
# cannot break it unseen.
test-dpbench:
	cd dpbench && $(GO) vet . && $(GO) test .

bench:
	$(GO) test -bench=. -benchmem ./...

# Re-measure only the ingress hand-off series (lock-free ring vs the
# mutex-queue baseline at 1/4/16 submitters), merging the points into the
# existing BENCH_npu.json and recomputing the ingress_fast ratios.
bench-ingress:
	$(GO) run ./cmd/npsim -benchingress

# Re-measure only the tenant_isolation series (per-tenant pkts/sec at
# 1/2/4 tenants on a partitioned plane), merging the points into the
# existing BENCH_npu.json and recomputing the min_vs_baseline ratios.
bench-tenant:
	$(GO) run ./cmd/npsim -benchtenant

# Brief fuzzing pass over the attacker-facing parsers and the data plane.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzAssemble -fuzztime=30s ./internal/asm/
	$(GO) test -run=NONE -fuzz=FuzzDeserializeProgram -fuzztime=30s ./internal/asm/
	$(GO) test -run=NONE -fuzz=FuzzDeserializeGraph -fuzztime=30s ./internal/monitor/
	$(GO) test -run=NONE -fuzz=FuzzUnmarshalPackage -fuzztime=30s ./internal/seccrypto/
	$(GO) test -run=NONE -fuzz=FuzzProcessPacket -fuzztime=30s ./internal/npu/
	$(GO) test -run=NONE -fuzz=FuzzThreatPolicy -fuzztime=30s ./internal/threat/
	$(GO) test -run=NONE -fuzz=FuzzIncidentRecord -fuzztime=30s ./internal/threat/
	$(GO) test -run=NONE -fuzz=FuzzFleetReport -fuzztime=30s ./internal/fleet/
	$(GO) test -run=NONE -fuzz=FuzzRotationPlan -fuzztime=30s ./internal/fleet/
	$(GO) test -run=NONE -fuzz=FuzzCampaignSpec -fuzztime=30s ./internal/campaign/

# Regenerate every table/figure of the paper (EXPERIMENTS.md source).
experiments:
	$(GO) run ./cmd/experiments

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/secure_install
	$(GO) run ./examples/attack_detection
	$(GO) run ./examples/multicore_router
	$(GO) run ./examples/hardware_flow

# Emit the RTL artifacts.
verilog:
	$(GO) run ./cmd/hwgen -unit merkle -o merkle_hash_unit.v
	$(GO) run ./cmd/hwgen -unit bitcount -o bitcount_hash_unit.v
	$(GO) run ./cmd/hwgen -unit comparator -o hash_comparator.v

clean:
	rm -f merkle_hash_unit.v bitcount_hash_unit.v hash_comparator.v
	rm -f test_output.txt bench_output.txt
