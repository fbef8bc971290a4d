// Package obs is the zero-dependency observability substrate of the
// serving stack: atomic counters and gauges, fixed-bucket latency
// histograms with quantile summaries, a registry that renders the
// Prometheus text exposition format, a lightweight span Trace for
// per-stage query timing, a JSON-lines slow-query log, and the pprof +
// expvar debug handler. Everything here is standard library only, and
// every metric method is nil-receiver safe so instrumentation can be
// optional at every call site (a nil *Counter increments nothing).
package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() {
	if g != nil {
		g.v.Add(1)
	}
}

// Dec subtracts one.
func (g *Gauge) Dec() {
	if g != nil {
		g.v.Add(-1)
	}
}

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// kind is the metric family type, named as the exposition format names it.
type kind string

const (
	counterKind   kind = "counter"
	gaugeKind     kind = "gauge"
	histogramKind kind = "histogram"
)

// child is one labeled instance inside a family: exactly one of the
// typed fields is set.
type child struct {
	values []string
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

// family groups all children of one metric name: the unit of HELP/TYPE
// rendering. Plain (unlabeled) metrics are the "" child.
type family struct {
	name   string
	help   string
	kind   kind
	labels []string
	mu     sync.Mutex
	kids   map[string]*child
}

// get returns the child for the label values, creating it with make on
// first use.
func (f *family) get(values []string, make func() *child) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	// The key is the values joined by NULs, built in a stack buffer (a
	// longer key spills to the heap): a warm lookup allocates nothing,
	// and only a miss stores the key as a string.
	var buf [128]byte
	key := buf[:0]
	for i, v := range values {
		if i > 0 {
			key = append(key, 0)
		}
		key = append(key, v...)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	k, ok := f.kids[string(key)]
	if !ok {
		k = make()
		k.values = append([]string(nil), values...)
		f.kids[string(key)] = k
	}
	return k
}

// Registry holds named metric families and renders them in the
// Prometheus text exposition format. All methods are safe for
// concurrent use; registration of an already-registered name returns
// the existing metric (and panics on a type or label-set mismatch,
// which is a programming error, not a runtime condition).
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func (r *Registry) family(name, help string, k kind, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != k || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered as a different type", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: k, labels: labels, kids: make(map[string]*child)}
	r.fams[name] = f
	return f
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, counterKind, nil)
	return f.get(nil, func() *child { return &child{c: &Counter{}} }).c
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, gaugeKind, nil)
	return f.get(nil, func() *child { return &child{g: &Gauge{}} }).g
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time: the natural shape for values that already live elsewhere (a
// pending-feedback count, a model generation) and must never disagree
// with their source.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, gaugeKind, nil)
	f.get(nil, func() *child { return &child{gf: fn} })
}

// Histogram registers (or returns) an unlabeled histogram with the
// given ascending upper bounds (nil means LatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.family(name, help, histogramKind, nil)
	return f.get(nil, func() *child { return &child{h: NewHistogram(bounds)} }).h
}

// CounterVec is a family of counters keyed by label values.
type CounterVec struct {
	f *family
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, counterKind, labels)}
}

// With returns the child counter for the label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.get(values, func() *child { return &child{c: &Counter{}} }).c
}

// Total sums every child's count: the "all label values" roll-up.
func (v *CounterVec) Total() uint64 {
	if v == nil {
		return 0
	}
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	var sum uint64
	for _, k := range v.f.kids {
		sum += k.c.Value()
	}
	return sum
}

// GaugeVec is a family of gauges keyed by label values.
type GaugeVec struct {
	f *family
}

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, gaugeKind, labels)}
}

// With returns the child gauge for the label values, creating it on
// first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.get(values, func() *child { return &child{g: &Gauge{}} }).g
}

// HistogramVec is a family of histograms keyed by label values.
type HistogramVec struct {
	f      *family
	bounds []float64
}

// HistogramVec registers (or returns) a labeled histogram family with
// shared bounds (nil means LatencyBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.family(name, help, histogramKind, labels), bounds: bounds}
}

// With returns the child histogram for the label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	bounds := v.bounds
	return v.f.get(values, func() *child { return &child{h: NewHistogram(bounds)} }).h
}

// WriteText renders every registered family in the Prometheus text
// exposition format (version 0.0.4): families sorted by name, children
// sorted by label values, histograms as cumulative le buckets plus
// _sum and _count. The output is deterministic for a given metric
// state, which is what the golden test pins.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves WriteText over HTTP with the exposition content type.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

func (f *family) render(b *strings.Builder) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.kids))
	for k := range f.kids {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kids := make([]*child, 0, len(keys))
	for _, k := range keys {
		kids = append(kids, f.kids[k])
	}
	f.mu.Unlock()
	if len(kids) == 0 {
		return
	}

	fmt.Fprintf(b, "# HELP %s %s\n", f.name, f.help)
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, k := range kids {
		switch {
		case k.c != nil:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(f.labels, k.values, "", ""), k.c.Value())
		case k.g != nil:
			fmt.Fprintf(b, "%s%s %d\n", f.name, labelString(f.labels, k.values, "", ""), k.g.Value())
		case k.gf != nil:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, k.values, "", ""), formatFloat(k.gf()))
		case k.h != nil:
			s := k.h.Snapshot()
			cum := uint64(0)
			for i, bound := range s.Bounds {
				cum += s.Counts[i]
				fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, k.values, "le", formatFloat(bound)), cum)
			}
			fmt.Fprintf(b, "%s_bucket%s %d\n", f.name,
				labelString(f.labels, k.values, "le", "+Inf"), s.Count)
			fmt.Fprintf(b, "%s_sum%s %s\n", f.name, labelString(f.labels, k.values, "", ""), formatFloat(s.Sum))
			fmt.Fprintf(b, "%s_count%s %d\n", f.name, labelString(f.labels, k.values, "", ""), s.Count)
		}
	}
}

// labelString renders {a="x",b="y"} for the label names and values,
// appending the extra pair (the histogram le label) when extraName is
// non-empty. Empty label sets render as "".
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// formatFloat renders a float the way the exposition format expects:
// shortest representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
