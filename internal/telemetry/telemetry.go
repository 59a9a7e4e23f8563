package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key="value" pair attached to a metric handle. Handles with
// the same name but different label sets are distinct series of one family.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// kind discriminates the three metric families.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing count. The record path (Inc/Add) is
// one atomic add: no locks, no allocations.
type Counter struct {
	labels string
	v      atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous int64 value. Set is one atomic store.
type Gauge struct {
	labels string
	v      atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket distribution. Observe is lock-free and
// allocation-free: a linear scan over the (short, immutable) bounds, two
// atomic increments and a CAS loop for the float sum.
type Histogram struct {
	labels  string
	bounds  []float64 // ascending upper bounds; +Inf bucket is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // IEEE-754 bits of the float64 sum
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1) // i == len(bounds) is the +Inf bucket
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DurationBuckets are the default bounds (seconds) for latency histograms:
// log-spaced from 10µs to 10s, the range auction rounds and scheduling RPCs
// actually occupy.
var DurationBuckets = []float64{
	10e-6, 50e-6, 100e-6, 500e-6,
	1e-3, 5e-3, 10e-3, 50e-3, 100e-3, 500e-3,
	1, 5, 10,
}

// family is every series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   kind
	bounds []float64 // histograms only

	series map[string]any // rendered label string -> handle
}

// Registry holds metric families and renders them in Prometheus text
// exposition format v0.0.4. Handle creation is get-or-create — asking twice
// for the same name and labels returns the same handle — so packages can
// register handles in constructors that run many times (per-shard servers,
// tests) without unbounded growth. Registration takes the registry lock;
// recording through the returned handles never does.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry every daemon serves on
// /metrics; package-level instrumentation handles throughout the repo are
// created against it.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// renderLabels renders labels sorted by key as `k1="v1",k2="v2"` (no
// surrounding braces, so histogram exposition can append an `le` label).
// Label values are escaped per the exposition format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\n\"") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

// getFamily returns the family for name, creating it with the given kind and
// help on first use. A name registered twice with different kinds is a
// programming error and panics — the alternative is silently exposing two
// TYPE lines for one name, which Prometheus rejects.
func (r *Registry) getFamily(name, help string, k kind, bounds []float64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: k, bounds: bounds, series: make(map[string]any)}
		r.families[name] = f
		return f
	}
	if f.kind != k {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.kind, k))
	}
	return f
}

// Counter returns the counter for name and labels, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindCounter, nil)
	if h, ok := f.series[key]; ok {
		return h.(*Counter)
	}
	c := &Counter{labels: key}
	f.series[key] = c
	return c
}

// Gauge returns the gauge for name and labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindGauge, nil)
	if h, ok := f.series[key]; ok {
		return h.(*Gauge)
	}
	g := &Gauge{labels: key}
	f.series[key] = g
	return g
}

// Histogram returns the histogram for name and labels, creating it with the
// given bucket upper bounds (ascending; nil uses DurationBuckets) on first
// use. Bounds are fixed for the family: later registrations reuse the first
// call's buckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		bounds = DurationBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending", name))
		}
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.getFamily(name, help, kindHistogram, bounds)
	if h, ok := f.series[key]; ok {
		return h.(*Histogram)
	}
	h := &Histogram{labels: key, bounds: f.bounds, buckets: make([]atomic.Uint64, len(f.bounds)+1)}
	f.series[key] = h
	return h
}

// WritePrometheus renders every family in text exposition format v0.0.4.
// Families are sorted by name and series by label string, so the output is
// byte-stable for a fixed set of handles — the golden test pins this.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, 0, len(names))
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, f.help)
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, k := range keys {
		switch h := f.series[k].(type) {
		case *Counter:
			writeSample(b, f.name, "", k, "", formatUint(h.Value()))
		case *Gauge:
			writeSample(b, f.name, "", k, "", strconv.FormatInt(h.Value(), 10))
		case *Histogram:
			cum := uint64(0)
			for i, bound := range h.bounds {
				cum += h.buckets[i].Load()
				writeSample(b, f.name, "_bucket", k, formatFloat(bound), formatUint(cum))
			}
			cum += h.buckets[len(h.bounds)].Load()
			writeSample(b, f.name, "_bucket", k, "+Inf", formatUint(cum))
			writeSample(b, f.name, "_sum", k, "", formatFloat(h.Sum()))
			writeSample(b, f.name, "_count", k, "", formatUint(h.Count()))
		}
	}
}

// writeSample emits one exposition line. le, when non-empty, is appended as
// the trailing `le` label of a histogram bucket.
func writeSample(b *strings.Builder, name, suffix, labels, le, value string) {
	b.WriteString(name)
	b.WriteString(suffix)
	if labels != "" || le != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if le != "" {
			if labels != "" {
				b.WriteByte(',')
			}
			b.WriteString(`le="`)
			b.WriteString(le)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

func formatUint(v uint64) string { return strconv.FormatUint(v, 10) }

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
