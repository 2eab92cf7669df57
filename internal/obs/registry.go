package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Registry is a concurrency-safe named collection of metrics. Accessors are
// get-or-create: the first call with a name creates the instrument, later
// calls return the same one. Mixing kinds under one name panics — that is a
// programming error, not a runtime condition.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that library instrumentation
// (geom LP counters, core measurement timers, published DQN training stats)
// registers into and that servers export at /metrics.
func Default() *Registry { return defaultRegistry }

// lookup returns the metric under name, a cached read first.
func (r *Registry) lookup(name string) (any, bool) {
	r.mu.RLock()
	m, ok := r.metrics[name]
	r.mu.RUnlock()
	return m, ok
}

// register stores the metric built by mk under name unless another
// goroutine won the race, in which case the winner is returned.
func (r *Registry) register(name string, mk func() any) any {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m := mk()
	r.metrics[name] = m
	return m
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	m, ok := r.lookup(name)
	if !ok {
		m = r.register(name, func() any { return &Counter{} })
	}
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T, not Counter", name, m))
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	m, ok := r.lookup(name)
	if !ok {
		m = r.register(name, func() any { return &Gauge{} })
	}
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T, not Gauge", name, m))
	}
	return g
}

// FloatGauge returns the float gauge registered under name, creating it if
// needed.
func (r *Registry) FloatGauge(name string) *FloatGauge {
	m, ok := r.lookup(name)
	if !ok {
		m = r.register(name, func() any { return &FloatGauge{} })
	}
	g, ok := m.(*FloatGauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T, not FloatGauge", name, m))
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds if needed. Later calls ignore bounds and return
// the existing histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	m, ok := r.lookup(name)
	if !ok {
		m = r.register(name, func() any { return NewHistogram(bounds) })
	}
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %T, not Histogram", name, m))
	}
	return h
}

// Snapshot returns a JSON-ready view of every registered metric: counters
// and gauges as integers, float gauges as floats, histograms as
// HistogramSnapshot values.
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	names := make([]string, 0, len(r.metrics))
	metrics := make([]any, 0, len(r.metrics))
	for name, m := range r.metrics {
		names = append(names, name)
		metrics = append(metrics, m)
	}
	r.mu.RUnlock()
	out := make(map[string]any, len(names))
	for i, name := range names {
		switch m := metrics[i].(type) {
		case *Counter:
			out[name] = m.Value()
		case *Gauge:
			out[name] = m.Value()
		case *FloatGauge:
			out[name] = m.Value()
		case *Histogram:
			out[name] = m.Snapshot()
		}
	}
	return out
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteText writes the snapshot as sorted expvar-style "name value" lines.
// Histograms expand into .count/.sum/.mean/.p50/.p95/.p99 lines.
func (r *Registry) WriteText(w io.Writer) error {
	snap := r.Snapshot()
	lines := make([]string, 0, len(snap))
	for name, v := range snap {
		switch v := v.(type) {
		case int64:
			lines = append(lines, fmt.Sprintf("%s %d", name, v))
		case float64:
			lines = append(lines, fmt.Sprintf("%s %g", name, v))
		case HistogramSnapshot:
			lines = append(lines,
				fmt.Sprintf("%s.count %d", name, v.Count),
				fmt.Sprintf("%s.sum %g", name, v.Sum),
				fmt.Sprintf("%s.mean %g", name, v.Mean),
				fmt.Sprintf("%s.p50 %g", name, v.P50),
				fmt.Sprintf("%s.p95 %g", name, v.P95),
				fmt.Sprintf("%s.p99 %g", name, v.P99),
			)
		}
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}
