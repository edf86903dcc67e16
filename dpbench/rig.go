package main

import (
	"crypto/rand"
	"errors"
	"fmt"
	"time"

	"sdmmon/internal/core"
	"sdmmon/internal/npu"
	"sdmmon/internal/shard"
	"sdmmon/internal/tenant"
)

// Plane shape shared by every workload. Marking is off (mark threshold =
// capacity) and the generator keeps at most highWater packets in flight,
// below any lane's capacity, so no packet is ever tail-dropped or marked
// by admission control.
const (
	queueCapacity = 1024
	drainBatch    = 64
)

// rig is one workload's plane plus the handles a run drives it through.
type rig struct {
	w        workload
	in       *inputs
	monitors bool

	plane   *shard.Plane
	devices []*core.Device  // device workloads: one per card
	mgr     *tenant.Manager // tenant_small
	nps     []*npu.NP       // the line cards

	// setupWires[r][c] is set-up r's signed package for card c and
	// rekeyWires[r][k] its k-th re-key package (device workloads).
	setupWires [][][]byte
	rekeyWires [][][]byte
	// tenantSeq is each tenant's last anti-downgrade sequence number.
	tenantSeq []uint64
	rep       int // current set-up
	rekeys    int // re-keys performed since it
}

// manufacture builds the device workloads' devices and signed packages:
// RSA identity keys for manufacturer, operator and two cards, then one
// package per release. None of this is timed.
func manufacture(r *rig, reps, perRep int) error {
	mfr, err := core.NewManufacturer("bench-mfr", nil)
	if err != nil {
		return err
	}
	op, err := core.NewOperator("bench-op", nil)
	if err != nil {
		return err
	}
	if err := mfr.Certify(op); err != nil {
		return err
	}
	for c := 0; c < 2; c++ {
		d, err := mfr.Manufacture(fmt.Sprintf("card%d", c), core.DeviceConfig{Cores: 1, MonitorsEnabled: r.monitors})
		if err != nil {
			return err
		}
		r.devices = append(r.devices, d)
		r.nps = append(r.nps, d.NP())
	}
	rels := releases(r.w, r.in, reps, perRep)
	bs, err := bundlesWith(op, rels)
	if err != nil {
		return err
	}
	r.setupWires = make([][][]byte, reps)
	r.rekeyWires = make([][][]byte, reps)
	per := len(r.in.initParams) + perRep
	for i, rel := range rels {
		pkg, err := op.Sec().BuildPackage(r.devices[rel.target].Public(), bs[i], rand.Reader)
		if err != nil {
			return err
		}
		if rep := i / per; i%per < len(r.in.initParams) {
			r.setupWires[rep] = append(r.setupWires[rep], pkg.Marshal())
		} else {
			r.rekeyWires[rep] = append(r.rekeyWires[rep], pkg.Marshal())
		}
	}
	return nil
}

// setup brings a fresh plane up and returns how long that took: from the
// first install on a card until the plane accepts packets. Set-up rep
// installs its own package on each card (device workloads) or builds a
// fresh NP and manager (tenant_small). The caller closes the plane.
func (r *rig) setup(rep int) (time.Duration, error) {
	r.rep, r.rekeys = rep, 0
	if r.w.tenanted {
		return r.setupTenant()
	}
	t0 := time.Now()
	for c, d := range r.devices {
		if _, err := d.Install(r.setupWires[rep][c]); err != nil {
			return 0, fmt.Errorf("install on card %d: %w", c, err)
		}
	}
	p, err := shard.NewPlane(shard.Config{
		NPs:           r.nps,
		QueueCapacity: queueCapacity,
		MarkThreshold: queueCapacity,
		BatchSize:     drainBatch,
	})
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	r.plane = p
	return d, nil
}

func newTenantNP(monitors bool) (*npu.NP, error) {
	return npu.New(npu.Config{Cores: len(tenantNames), MonitorsEnabled: monitors})
}

func tenantSpecs() []tenant.Spec {
	specs := make([]tenant.Spec, len(tenantNames))
	for t, name := range tenantNames {
		specs[t] = tenant.Spec{Name: name, Cores: []int{t}}
	}
	return specs
}

func (r *rig) tenantBundle(t int, param uint32) tenant.AppBundle {
	r.tenantSeq[t]++
	return tenant.AppBundle{App: tenantApps[t], Param: param,
		Version: fmt.Sprintf("1.0.%d", r.tenantSeq[t]), Sequence: r.tenantSeq[t]}
}

func (r *rig) setupTenant() (time.Duration, error) {
	np, err := newTenantNP(r.monitors)
	if err != nil {
		return 0, err
	}
	// A fresh manager has a fresh ledger per tenant.
	r.tenantSeq = make([]uint64, len(tenantNames))
	t0 := time.Now()
	mgr, err := tenant.New(tenant.Config{
		NPs:           []*npu.NP{np},
		Specs:         tenantSpecs(),
		Classify:      classifyTenant,
		QueueCapacity: queueCapacity,
		MarkThreshold: queueCapacity,
		BatchSize:     drainBatch,
	})
	if err != nil {
		return 0, err
	}
	for t, name := range tenantNames {
		if err := mgr.Install(name, r.tenantBundle(t, r.in.initParams[t])); err != nil {
			mgr.Close()
			return 0, fmt.Errorf("install tenant %s: %w", name, err)
		}
	}
	d := time.Since(t0)
	r.mgr, r.plane, r.nps = mgr, mgr.Plane(), []*npu.NP{np}
	return d, nil
}

// rekey performs the set-up's next live re-key and returns its duration: a signed package's Device.StageUpgrade + CommitUpgrade on one
// card, or tenant.Manager.Install of a fresh-parameter release for one
// tenant (the tenant path has no package cryptography).
func (r *rig) rekey() (time.Duration, error) {
	j := r.rekeys
	target := j % 2
	if r.w.tenanted {
		b := r.tenantBundle(target, r.in.rekeyParams[j%rekeyParamCount])
		t0 := time.Now()
		err := r.mgr.Install(tenantNames[target], b)
		d := time.Since(t0)
		r.rekeys++
		return d, err
	}
	if j >= len(r.rekeyWires[r.rep]) {
		return 0, errRekeysExhausted
	}
	d := r.devices[target]
	t0 := time.Now()
	if _, err := d.StageUpgrade(r.rekeyWires[r.rep][j]); err != nil {
		return 0, fmt.Errorf("stage re-key %d on card %d: %w", j, target, err)
	}
	if _, err := d.CommitUpgrade(); err != nil {
		return 0, fmt.Errorf("commit re-key %d on card %d: %w", j, target, err)
	}
	dur := time.Since(t0)
	r.rekeys++
	return dur, nil
}

// errRekeysExhausted ends a set-up's re-keys when its packages run out.
var errRekeysExhausted = errors.New("re-key schedule exhausted")

// hashCache sums the instruction-hash cache counters of every card's live
// images. Read it only once the plane is closed: the drain workers write
// the counters without synchronization.
func (r *rig) hashCache() (hits, misses uint64) {
	for _, np := range r.nps {
		h, m := np.HashCacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}
