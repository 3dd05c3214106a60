package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span phases: which part of a traced run recorded the span.
const (
	phaseCount  = "count"  // the count pass over the distinct inputs
	phaseProbe  = "probe"  // Parse/Validate/Hash timings per distinct body
	phaseWindow = "window" // the traced timed window
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function.
type span struct {
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Op     int64  `json:"op"`     // operation the span belongs to
	ID     int    `json:"id"`     // index in the trace
	Parent int    `json:"parent"` // ID of the enclosing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // End-Start minus what child spans cover
	Count  int64  `json:"count,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	phase string
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) setPhase(p string) {
	t.mu.Lock()
	t.phase = p
	t.mu.Unlock()
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, op int64, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Phase: t.phase, Op: op, ID: len(t.spans), Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) { t.endN(id, 0) }

// endN closes span id and records the work count done inside it.
func (t *tracer) endN(id int, n int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].Count = n
	t.mu.Unlock()
}

// closed returns the finished spans of one name and phase.
func (t *tracer) closed(name, phase string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.Phase == phase && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// medianMs is the median duration in ms of the named spans of one phase;
// 0 when there are none.
func (t *tracer) medianMs(name, phase string) float64 {
	var d []float64
	for _, s := range t.closed(name, phase) {
		d = append(d, float64(s.dur())/1e6)
	}
	return median(d)
}

// medianPerCount is the median of duration/count in ns over the named
// spans of one phase that recorded a count.
func (t *tracer) medianPerCount(name, phase string) float64 {
	var d []float64
	for _, s := range t.closed(name, phase) {
		if s.Count > 0 {
			d = append(d, float64(s.dur())/float64(s.Count))
		}
	}
	return median(d)
}

// fillSelf computes every span's self time: its duration minus the union
// of the intervals its children cover inside it.
func (t *tracer) fillSelf() {
	kids := make([][]int, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	for i := range t.spans {
		p := &t.spans[i]
		if p.End < 0 {
			continue
		}
		var iv [][2]int64
		for _, k := range kids[i] {
			c := t.spans[k]
			lo, hi := max(c.Start, p.Start), min(c.End, p.End)
			if c.End >= 0 && hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64
		for _, v := range iv {
			lo := max(v[0], reach)
			if v[1] > lo {
				covered += v[1] - lo
			}
			reach = max(reach, v[1])
		}
		p.Self = p.dur() - covered
	}
}

// write saves every span as one JSON line, self times filled in.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fillSelf()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTable summarizes one phase's self time by span name, largest first.
// Call it after write, which fills the self times.
func (t *tracer) selfTable(phase string) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := map[string]int64{}
	var names []string
	var total int64
	for _, s := range t.spans {
		if s.Phase != phase || s.End < 0 {
			continue
		}
		if _, seen := self[s.Name]; !seen {
			names = append(names, s.Name)
		}
		self[s.Name] += s.Self
		total += s.Self
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	out := []string{fmt.Sprintf("self time of the traced window's spans (total %.1f ms):", float64(total)/1e6)}
	for _, n := range names {
		out = append(out, fmt.Sprintf("  %-28s %10.1f ms %6.1f%%", n, float64(self[n])/1e6, 100*float64(self[n])/float64(max(total, 1))))
	}
	return out
}

// serviceLayer holds the service-side per-layer metrics; zero for the
// offline workloads.
type serviceLayer struct {
	jobMs, groupMs, resultMs, overheadMs, hitRatio float64
}

// addLayerMetrics adds the span-based per-layer metrics: the simulation
// layers' spans of phase ph, the probe phase's Parse/Validate/Hash
// timings by topology kind, and the service metrics.
func addLayerMetrics(m *metrics, tr *tracer, ph string, svc serviceLayer) {
	m.add("sim.ns_per_event", tr.medianPerCount("cluster.run", ph), "ns")
	m.add("cluster.new_ms", tr.medianMs("cluster.new", ph), "ms")
	m.add("cluster.run_ms", tr.medianMs("cluster.run", ph), "ms")
	m.add("workload.generate_ms", tr.medianMs("workload.generate", ph), "ms")
	m.add("workload.fluidmap_ms", tr.medianMs("workload.fluidmap", ph), "ms")
	m.add("flowsim.run_ms", tr.medianMs("flowsim.run", ph), "ms")
	m.add("flowsim.us_per_flow", tr.medianPerCount("flowsim.run", ph)/1e3, "us")
	for _, call := range []string{"parse", "validate", "hash"} {
		for _, kind := range []string{"fig6", "custom"} {
			m.add("scenario."+call+"_us."+kind, tr.medianMs("scenario."+call+"."+kind, phaseProbe)*1e3, "us")
		}
	}
	m.add("scenario.reduce_ms", tr.medianMs("scenario.reduce", ph), "ms")
	m.add("scenario.encode_ms", tr.medianMs("scenario.encode", ph), "ms")
	m.add("service.handler_ms.job", svc.jobMs, "ms")
	m.add("service.handler_ms.group", svc.groupMs, "ms")
	m.add("service.handler_ms.result", svc.resultMs, "ms")
	m.add("http.overhead_ms", svc.overheadMs, "ms")
	m.add("service.cache_hit_ratio", svc.hitRatio, "ratio")
}

// overheadMs is the median, over the handler spans of one phase, of the
// enclosing client span's duration minus the handler span's: the part of
// a round trip spent in loopback and net/http.
func (t *tracer) overheadMs(phase string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d []float64
	for _, s := range t.spans {
		if s.Phase == phase && s.Parent >= 0 && s.End >= 0 && strings.HasPrefix(s.Name, "service.handler.") {
			if p := t.spans[s.Parent]; p.End >= 0 {
				d = append(d, float64(p.dur()-s.dur())/1e6)
			}
		}
	}
	return median(d)
}
