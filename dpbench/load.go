package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"sdmmon/internal/shard"
)

// The closed-loop pacing of the saturated phase: one generator goroutine
// tops the plane up to highWater packets in flight and sleeps while more
// than lowWater are in flight. highWater is below queueCapacity, so no
// lane can overflow.
const (
	highWater  = 768
	lowWater   = 384
	pauseSleep = 50 * time.Microsecond
	// window is the saturated phase's sampling period.
	window = 100 * time.Millisecond
	// rekeyCadence spaces attack_rekey's live re-keys; the other
	// workloads' trailing re-key phase runs them at rekeyPhaseCadence.
	rekeyCadence      = 100 * time.Millisecond
	rekeyPhaseCadence = 25 * time.Millisecond
	// stuck is how long the plane may take to settle what it was sent.
	stuck = 10 * time.Second
)

// gen is the single closed-loop generator. It submits aligned
// burstSize-packet batches of the input pool in order, cycling.
type gen struct {
	plane *shard.Plane
	in    *inputs
	next  int // next batch index

	sent, attacks uint64 // packets sent, as the generator counts them
	submitted     uint64 // packets handed to SubmitBatch
	stats         int    // Plane.Stats calls (for the allocation correction)
	refused       uint64 // packets admission did not queue

	// withhold plants a fault for the self-tests: the first batch's first
	// packet is counted as sent but never submitted.
	withhold bool

	// spans, when set, records a shard.submit span per SubmitBatch, as a
	// child of span parent.
	spans  *tracer
	parent int
}

func (g *gen) submit() {
	b := g.next
	pkts := g.in.pool[b*burstSize : (b+1)*burstSize]
	if g.withhold {
		g.withhold = false
		pkts = pkts[1:]
	}
	var id int
	if g.spans != nil {
		id = g.spans.begin("shard.submit", g.parent)
	}
	adm := g.plane.SubmitBatch(pkts)
	if g.spans != nil {
		g.spans.end(id, int64(len(pkts)))
	}
	g.refused += uint64(adm.Dropped + adm.Starved)
	g.submitted += uint64(len(pkts))
	g.sent += burstSize
	g.attacks += g.in.batchAttacks[b]
	g.next = (b + 1) % len(g.in.batchAttacks)
}

// settled counts packets whose fate is decided, from the per-shard
// counters. Lanes are FIFO, so once settled reaches a count every packet
// submitted before it has its verdict.
func settledOf(ps shard.PlaneStats) uint64 {
	var n uint64
	for _, s := range ps.Shards {
		n += s.Forwarded + s.AppDrops + s.Rejected + s.TailDrops + s.Starved
	}
	return n
}

func (g *gen) settled() uint64 {
	g.stats++
	return settledOf(g.plane.Stats())
}

// windowSample is one saturated-phase window.
type windowSample struct {
	n     uint64  // verdicts
	secs  float64 // wall time
	cpuNs int64   // process CPU time
}

// saturate drives the plane closed-loop for d. Every window it calls
// sample (when non-nil) with the window's verdicts, wall time and process
// CPU time.
func (g *gen) saturate(d time.Duration, sample func(windowSample)) {
	start := time.Now()
	end := start.Add(d)
	mark := start.Add(window)
	s0 := g.settled()
	c0 := cpuTime()
	t0 := start
	for {
		s := g.settled()
		now := time.Now()
		if done := !now.Before(end); done || !now.Before(mark) {
			c := cpuTime()
			if n := s - s0; sample != nil && n > 0 {
				sample(windowSample{n: n, secs: now.Sub(t0).Seconds(), cpuNs: c - c0})
			}
			s0, c0, t0 = s, c, now
			mark = mark.Add(window)
			if done {
				return
			}
		}
		inflight := g.submitted - s
		if inflight > lowWater {
			time.Sleep(pauseSleep)
			continue
		}
		for ; inflight+burstSize <= highWater; inflight += burstSize {
			g.submit()
		}
	}
}

// quiesce waits until every submitted packet is settled.
func (g *gen) quiesce() error {
	end := time.Now().Add(stuck)
	for {
		ps := g.plane.Stats()
		if ps.Backlog == 0 && ps.Arrived == g.submitted {
			return nil
		}
		if time.Now().After(end) {
			return fmt.Errorf("plane did not drain within %v: backlog %d", stuck, ps.Backlog)
		}
		time.Sleep(time.Millisecond)
	}
}

// burst runs the burst phase for d: one burstSize-packet SubmitBatch
// outstanding at a time, each timed from the call until its last verdict
// shows in the settled counts. Returns the latencies in microseconds, and
// an error if a burst never completes.
func (g *gen) burst(d time.Duration) ([]float64, error) {
	var lat []float64
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		t0 := time.Now()
		g.submit()
		for g.settled() < g.submitted {
			if time.Since(t0) > stuck {
				return lat, fmt.Errorf("burst: %d packets unsettled after %v", g.submitted-g.settled(), stuck)
			}
			runtime.Gosched()
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return lat, nil
}

// rekeyer re-keys the rig on its own goroutine, at once and then at a
// fixed cadence, while the generator keeps traffic flowing.
type rekeyer struct {
	stop chan struct{}
	done sync.WaitGroup
	durs []float64 // ms
	err  error
}

func startRekeyer(r *rig, cadence time.Duration) *rekeyer {
	k := &rekeyer{stop: make(chan struct{})}
	k.done.Add(1)
	go func() {
		defer k.done.Done()
		t := time.NewTicker(cadence)
		defer t.Stop()
		for {
			d, err := r.rekey()
			if errors.Is(err, errRekeysExhausted) {
				return
			}
			if err != nil {
				k.err = err
				return
			}
			k.durs = append(k.durs, float64(d.Nanoseconds())/1e6)
			select {
			case <-k.stop:
				return
			case <-t.C:
			}
		}
	}()
	return k
}

// finish stops the re-keyer, waits for it and returns its re-key times.
func (k *rekeyer) finish() ([]float64, error) {
	close(k.stop)
	k.done.Wait()
	return k.durs, k.err
}

// cpuTime is the process's user+system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}
