// Package telemetry is the IFoT observability subsystem: a metrics
// registry (counters and gauges; a latency distribution is a LogHistogram
// exposed as quantile gauges — all with bounded memory, unlike the
// experiment harness's sample-accumulating LatencyRecorder), a
// per-message span/trace model for end-to-end flow tracing, and exporters
// (Prometheus text format over HTTP, pprof, and Mosquitto-style MQTT
// topics). The tracer is parameterized by clock.Clock so the same span
// pipeline instruments both the real-time middleware and the virtual-time
// simulator.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name/value pair attached to a metric series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Kind enumerates metric types, mirroring the Prometheus exposition types.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "untyped"
	}
}

// Counter is a monotonically increasing metric. The zero value is unusable;
// obtain one from Registry.Counter.
type Counter struct {
	n  atomic.Int64
	fn func() int64 // non-nil for CounterFunc-backed counters
}

// Inc increments by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add increments by delta (negative deltas are ignored — counters only go
// up).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.n.Add(delta)
	}
}

// Value reports the current count.
func (c *Counter) Value() int64 {
	if c.fn != nil {
		return c.fn()
	}
	return c.n.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
	fn   func() float64 // non-nil for GaugeFunc-backed gauges
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		niu := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, niu) {
			return
		}
	}
}

// Value reports the current gauge value.
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

// series is one (labels → value) instance of a metric family.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
}

// value reads the series' current value, whichever kind it is.
func (s *series) value() float64 {
	if s.c != nil {
		return float64(s.c.Value())
	}
	return s.g.Value()
}

// family groups all series sharing a metric name.
type family struct {
	name  string
	help  string
	kind  Kind
	order []string // label signatures, insertion order
	by    map[string]*series
}

// Registry holds named metrics and renders them in Prometheus text format.
// All methods are safe for concurrent use; Counter and Gauge are
// get-or-create, so hot paths may call them repeatedly (though caching the
// returned handle is cheaper).
type Registry struct {
	mu    sync.Mutex
	order []string
	fams  map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// Counter returns the counter for name+labels, creating it on first use.
// It panics if name is invalid or already registered with a different kind
// (programmer error, caught in tests).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.series(name, help, KindCounter, labels)
	return s.c
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.series(name, help, KindGauge, labels)
	return s.g
}

// GaugeFunc registers a gauge whose value is computed by fn at collection
// time (e.g. uptime, queue depths owned by another subsystem).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.series(name, help, KindGauge, labels)
	s.g.fn = fn
}

// CounterFunc registers a counter whose value is computed by fn at
// collection time — for monotonic counts maintained by another subsystem
// in its own sharded or padded storage (e.g. the broker's per-shard
// route-cache statistics). fn must be monotonically non-decreasing.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	s := r.series(name, help, KindCounter, labels)
	s.c.fn = fn
}

func (r *Registry) series(name, help string, kind Kind, labels []Label) *series {
	if !validMetricName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.fams[name]
	if !ok {
		fam = &family{name: name, help: help, kind: kind, by: make(map[string]*series)}
		r.fams[name] = fam
		r.order = append(r.order, name)
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s registered as %v, requested as %v", name, fam.kind, kind))
	}
	sig := labelSignature(labels)
	s, ok := fam.by[sig]
	if !ok {
		s = &series{labels: append([]Label(nil), labels...)}
		if kind == KindCounter {
			s.c = &Counter{}
		} else {
			s.g = &Gauge{}
		}
		sort.Slice(s.labels, func(i, j int) bool { return s.labels[i].Name < s.labels[j].Name })
		fam.by[sig] = s
		fam.order = append(fam.order, sig)
	}
	return s
}

// SeriesCount reports the number of series registered under name (0 when
// the family does not exist). Useful for bounding label cardinality.
func (r *Registry) SeriesCount(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.fams[name]
	if !ok {
		return 0
	}
	return len(fam.order)
}

// Sample is one exported metric value.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// Samples snapshots every counter and gauge in registration order — the walk the MQTT exporter publishes. Like
// WritePrometheus, it reads metric values after releasing the registry
// lock: GaugeFuncs may acquire subsystem locks (e.g. the broker's) that
// are themselves held while registering metrics.
func (r *Registry) Samples() []Sample {
	type snap struct {
		name string
		s    *series
	}
	r.mu.Lock()
	snaps := make([]snap, 0, len(r.order))
	for _, name := range r.order {
		fam := r.fams[name]
		for _, sig := range fam.order {
			snaps = append(snaps, snap{name: name, s: fam.by[sig]})
		}
	}
	r.mu.Unlock()

	out := make([]Sample, 0, len(snaps))
	for _, sn := range snaps {
		out = append(out, Sample{Name: sn.name, Labels: sn.s.labels, Value: sn.s.value()})
	}
	return out
}

func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var sb strings.Builder
	for _, l := range ls {
		sb.WriteString(l.Name)
		sb.WriteByte(1)
		sb.WriteString(l.Value)
		sb.WriteByte(2)
	}
	return sb.String()
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}
