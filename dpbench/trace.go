package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// rootSpan is the index of the run's root span.
const rootSpan = 0

// span is one timed call into a layer, recorded by the benchmark around
// the call (never inside the program).
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is the work the call did: packets, instructions or observations.
	N int64 `json:"n"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: []span{{Name: "run", Parent: -1}}}
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int, n int64) {
	t.spans[id].End = int64(time.Since(t.t0))
	t.spans[id].N = n
}

// dur is span id's duration in ns.
func (t *tracer) dur(id int) int64 { return t.spans[id].End - t.spans[id].Start }

// layerTotal is one span name's summed self time (duration minus the
// part covered by child spans) and work done.
type layerTotal struct {
	selfNs int64
	n      int64
}

func (t *tracer) totals() map[string]*layerTotal {
	t.spans[rootSpan].End = int64(time.Since(t.t0))
	child := make([]int64, len(t.spans))
	for _, s := range t.spans[1:] {
		child[s.Parent] += s.End - s.Start
	}
	out := map[string]*layerTotal{}
	for i, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.selfNs += s.End - s.Start - child[i]
		lt.n += s.N
	}
	return out
}

// perItem is a layer's self time per unit of work, in ns.
func (lt *layerTotal) perItem() float64 {
	if lt == nil || lt.n == 0 {
		return 0
	}
	return float64(lt.selfNs) / float64(lt.n)
}

// write saves the spans as JSON under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
