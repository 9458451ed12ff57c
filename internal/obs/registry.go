package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Label is one name=value dimension attached to a metric.
type Label struct {
	Key, Value string
}

// L builds a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind discriminates what a registry entry measures.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota + 1
	KindHistogram
	KindCounterFunc
	KindGaugeFunc
)

func (k Kind) String() string {
	switch k {
	case KindCounter, KindCounterFunc:
		return "counter"
	case KindGaugeFunc:
		return "gauge"
	case KindHistogram:
		return "summary"
	}
	return "untyped"
}

type entry struct {
	name   string
	labels []Label
	kind   Kind

	c  *Counter
	h  *Histogram
	cf func() int64
	gf func() float64
}

// Registry is a named metric store. The same name+labels always resolves
// to the same instrument; registering an existing name with a different
// kind panics (a programming error, like registering two flags with one
// name). Func-backed entries may be re-registered, replacing the callback
// — components that publish a live snapshot struct use this to survive
// reconstruction.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
	order   []string // insertion order, for stable export
	// Label-cardinality cap: at fleet scale a per-session label would
	// otherwise grow the registry without bound. families counts distinct
	// label sets per metric name; once a family reaches maxSets, further
	// NEW label sets get detached (unregistered) instruments and the
	// obs_dropped_labels_total counter ticks. Existing label sets keep
	// resolving normally, and unlabeled metrics are never capped.
	maxSets  int
	families map[string]int
	dropped  *Counter
}

// DefaultMaxLabelSets is the per-family label-set cap a fresh registry
// starts with.
const DefaultMaxLabelSets = 1024

// droppedLabelsMetric counts label sets refused by the cardinality cap.
const droppedLabelsMetric = "obs_dropped_labels_total"

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		entries:  make(map[string]*entry),
		maxSets:  DefaultMaxLabelSets,
		families: make(map[string]int),
	}
}

// dropLocked accounts one refused label set (registering the drop counter
// itself on first use — it is unlabeled, so never capped).
func (r *Registry) dropLocked() {
	if r.dropped == nil {
		if e := r.entries[droppedLabelsMetric]; e != nil && e.kind == KindCounter {
			r.dropped = e.c
		} else {
			e := &entry{name: droppedLabelsMetric, kind: KindCounter, c: &Counter{}}
			r.entries[droppedLabelsMetric] = e
			r.order = append(r.order, droppedLabelsMetric)
			r.dropped = e.c
		}
	}
	r.dropped.Inc()
}

// key renders the unique identity of name+labels. Labels are sorted so
// the same set in any order is one metric.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func (r *Registry) get(name string, kind Kind, labels []Label) *entry {
	k := key(name, labels)
	r.mu.RLock()
	e := r.entries[k]
	r.mu.RUnlock()
	if e != nil {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", k, kind, e.kind))
		}
		return e
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e = r.entries[k]; e != nil {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", k, kind, e.kind))
		}
		return e
	}
	e = &entry{name: name, labels: append([]Label(nil), labels...), kind: kind}
	switch kind {
	case KindCounter:
		e.c = &Counter{}
	case KindHistogram:
		e.h = &Histogram{}
	}
	if len(labels) > 0 && r.families[name] >= r.maxSets {
		// Cardinality cap: hand back a working but unregistered
		// instrument — writers keep a valid sink, the export stays
		// bounded, and the drop is visible on obs_dropped_labels_total.
		r.dropLocked()
		return e
	}
	if len(labels) > 0 {
		r.families[name]++
	}
	r.entries[k] = e
	r.order = append(r.order, k)
	return e
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.get(name, KindCounter, labels).c
}

// Histogram returns the histogram for name+labels, creating it on first
// use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.get(name, KindHistogram, labels).h
}

// CounterFunc registers (or replaces) a callback-backed counter — the
// adapter that exposes a pre-existing snapshot field through the registry
// without moving the counter itself.
func (r *Registry) CounterFunc(name string, fn func() int64, labels ...Label) {
	e := r.get(name, KindCounterFunc, labels)
	r.mu.Lock()
	e.cf = fn
	r.mu.Unlock()
}

// GaugeFunc registers (or replaces) a callback-backed gauge.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	e := r.get(name, KindGaugeFunc, labels)
	r.mu.Lock()
	e.gf = fn
	r.mu.Unlock()
}

// Point is one exported sample.
type Point struct {
	Name   string
	Labels []Label
	Kind   Kind
	Value  float64       // counters, gauges and funcs
	Hist   *HistSnapshot // histograms only
}

// Gather snapshots every metric in registration order. Func-backed
// entries are invoked without registry locks held beyond the map read, so
// callbacks may take their component's own locks.
func (r *Registry) Gather() []Point {
	r.mu.RLock()
	es := make([]*entry, 0, len(r.order))
	for _, k := range r.order {
		es = append(es, r.entries[k])
	}
	r.mu.RUnlock()

	pts := make([]Point, 0, len(es))
	for _, e := range es {
		p := Point{Name: e.name, Labels: e.labels, Kind: e.kind}
		switch e.kind {
		case KindCounter:
			p.Value = float64(e.c.Value())
		case KindHistogram:
			s := e.h.Snapshot()
			p.Hist = &s
		case KindCounterFunc:
			r.mu.RLock()
			fn := e.cf
			r.mu.RUnlock()
			if fn != nil {
				p.Value = float64(fn())
			}
		case KindGaugeFunc:
			r.mu.RLock()
			fn := e.gf
			r.mu.RUnlock()
			if fn != nil {
				p.Value = fn()
			}
		}
		pts = append(pts, p)
	}
	return pts
}
