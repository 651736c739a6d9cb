// Package metrics is the repo's observability layer: a small metrics
// registry — counters, gauges and fixed-bucket histograms — built so
// that RECORDING is free on the control loop's hot path.
//
// The contract, relied on by the zero-alloc gates of internal/core and
// internal/cluster (TestStepZeroAlloc, TestClusterStepZeroAlloc):
//
//   - Registration (Counter/Gauge/Histogram) may allocate: it interns
//     the metric name, the rendered label set and the bucket layout
//     once, up front.
//   - Recording (Add/Inc/Set/Observe) performs only atomic integer
//     operations on pre-allocated storage: zero heap allocations, no
//     locks, no map lookups, no string formatting. All record methods
//     are safe for concurrent use and nil-receiver safe, so an unarmed
//     component records into nil instruments for free.
//
// Exposition is deliberately decoupled from collection: WriteText
// renders the whole registry in the Prometheus text format (version
// 0.0.4) with fully deterministic ordering — families sorted by name,
// series sorted by label set — so outputs diff cleanly across runs.
// The package depends only on the standard library and pulls in no
// net/http; serving the exposition over HTTP is the caller's business
// (see internal/metricshttp).
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the exposition type of a metric family.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Label is one name="value" pair attached to a series. Labels are
// interned at registration; recording never touches them.
type Label struct {
	Key, Value string
}

// DefaultLatencyBucketsUs is the fixed bucket layout used by the
// per-stage and per-node step latency histograms: microsecond upper
// bounds spanning 50 µs to 1 s, wide enough for the paper's ~5 ms step
// on real hardware and for the sub-millisecond simulated steps.
var DefaultLatencyBucketsUs = []int64{
	50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000,
	25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000,
}

// Counter is a monotonically increasing int64. The zero value is ready
// to use; a nil *Counter discards records.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored: counters
// only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an int64 that can go up and down. The zero value is ready;
// a nil *Gauge discards records.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets chosen at
// registration. Observe is a linear scan over the (small, fixed) bound
// slice plus three atomic adds — no allocation, safe for concurrent
// use. A nil *Histogram discards observations.
type Histogram struct {
	bounds  []int64        // ascending upper bounds; +Inf bucket is implicit
	buckets []atomic.Int64 // len(bounds)+1, non-cumulative per bucket
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// series is one labelled instance inside a family.
type series struct {
	labels string // pre-rendered {key="value",...} or ""
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family groups every series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	series []*series
	byKey  map[string]*series
}

// Registry holds metric families. Registration takes a lock and may
// allocate; the instruments it hands out record lock-free. The zero
// value is not usable — call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Counter returns the counter with the given name and label set,
// creating it on first use. Registering the same (name, labels) again
// returns the same instrument; reusing a name with a different kind
// panics — a programmer error, like a duplicate flag.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, KindCounter, nil, labels)
	return s.ctr
}

// Gauge returns the gauge with the given name and label set, creating
// it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, KindGauge, nil, labels)
	return s.gauge
}

// Histogram returns the histogram with the given name, bucket upper
// bounds and label set, creating it on first use. bounds must be
// ascending and non-empty; every series of one family shares the
// layout of the first registration.
func (r *Registry) Histogram(name, help string, bounds []int64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram " + name + " needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram " + name + " bounds not strictly ascending")
		}
	}
	s := r.lookup(name, help, KindHistogram, bounds, labels)
	return s.hist
}

// lookup finds or creates the series for (name, labels).
func (r *Registry) lookup(name, help string, kind Kind, bounds []int64, labels []Label) *series {
	if !validName(name) {
		panic("metrics: invalid metric name " + strconv.Quote(name))
	}
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, byKey: map[string]*series{}}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, re-registered as %s", name, f.kind, kind))
	}
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := &series{labels: key}
	switch kind {
	case KindCounter:
		s.ctr = &Counter{}
	case KindGauge:
		s.gauge = &Gauge{}
	case KindHistogram:
		h := &Histogram{bounds: append([]int64(nil), bounds...)}
		h.buckets = make([]atomic.Int64, len(bounds)+1)
		s.hist = h
	}
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s
}

// validName checks the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// renderLabels interns a label list as the canonical `key="value",...`
// string, sorted by key so the same set always renders identically.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if !validName(l.Key) {
			panic("metrics: invalid label name " + strconv.Quote(l.Key))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		escapeInto(&b, l.Value)
		b.WriteByte('"')
	}
	return b.String()
}

// escapeInto writes v with backslash, newline and double-quote escaped
// per the Prometheus text format.
func escapeInto(b *strings.Builder, v string) {
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
}

// WriteText renders the registry in the Prometheus text exposition
// format with deterministic ordering: families sorted by name, series
// sorted by rendered label set. Values are read atomically but the
// exposition as a whole is not a consistent snapshot — fine for
// monotonic counters and latency histograms.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		r.mu.Lock()
		ser := append([]*series(nil), f.series...)
		r.mu.Unlock()
		sort.Slice(ser, func(i, j int) bool { return ser[i].labels < ser[j].labels })
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range ser {
			writeSeries(&b, f, s)
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// writeSeries renders one series of f into b.
func writeSeries(b *strings.Builder, f *family, s *series) {
	switch f.kind {
	case KindCounter:
		writeSample(b, f.name, "", s.labels, "", s.ctr.Value())
	case KindGauge:
		writeSample(b, f.name, "", s.labels, "", s.gauge.Value())
	case KindHistogram:
		h := s.hist
		var cum int64
		for i, bound := range h.bounds {
			cum += h.buckets[i].Load()
			writeSample(b, f.name, "_bucket", s.labels,
				`le="`+strconv.FormatInt(bound, 10)+`"`, cum)
		}
		cum += h.buckets[len(h.bounds)].Load()
		writeSample(b, f.name, "_bucket", s.labels, `le="+Inf"`, cum)
		writeSample(b, f.name, "_sum", s.labels, "", h.Sum())
		writeSample(b, f.name, "_count", s.labels, "", h.Count())
	}
}

// writeSample renders `name_suffix{labels,extra} value`.
func writeSample(b *strings.Builder, name, suffix, labels, extra string, v int64) {
	b.WriteString(name)
	b.WriteString(suffix)
	if labels != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if labels != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(v, 10))
	b.WriteByte('\n')
}
