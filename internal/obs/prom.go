package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promName maps the registry's dotted lowercase names onto the Prometheus
// grammar [a-zA-Z_:][a-zA-Z0-9_:]* by replacing dots with underscores. The
// hygiene test in hygiene_test.go pins every registered name to
// ^[a-z0-9_.]+$, so this replacement is the whole sanitization.
func promName(name string) string {
	return strings.ReplaceAll(name, ".", "_")
}

// promLe renders a histogram bucket bound the way Prometheus expects.
func promLe(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// WriteProm writes every registered metric in the Prometheus text
// exposition format (version 0.0.4): # HELP and # TYPE lines per family
// (the HELP text names the kind and the registry name),
// counters and gauges as single samples, histograms as cumulative
// _bucket{le="..."} series closed by +Inf plus _sum and _count. Names are
// sanitized with promName; output is sorted by name so scrapes diff
// cleanly.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.metrics))
	metrics := make(map[string]any, len(r.metrics))
	for name, m := range r.metrics {
		names = append(names, name)
		metrics[name] = m
	}
	r.mu.RUnlock()
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		pn := promName(name)
		switch m := metrics[name].(type) {
		case *Counter:
			writePromHeader(&b, pn, name, "counter")
			fmt.Fprintf(&b, "%s %d\n", pn, m.Value())
		case *Gauge:
			writePromHeader(&b, pn, name, "gauge")
			fmt.Fprintf(&b, "%s %d\n", pn, m.Value())
		case *FloatGauge:
			writePromHeader(&b, pn, name, "gauge")
			fmt.Fprintf(&b, "%s %s\n", pn, strconv.FormatFloat(m.Value(), 'g', -1, 64))
		case *Histogram:
			writePromHeader(&b, pn, name, "histogram")
			s := m.Snapshot()
			// The snapshot's per-bucket counts become the cumulative series
			// Prometheus requires; the bound semantics already match (an
			// observation lands in the first bucket with v ≤ bound).
			var cum int64
			for i, bound := range s.bounds {
				cum += s.counts[i]
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", pn, promLe(bound), cum)
			}
			cum += s.counts[len(s.counts)-1]
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", pn, cum)
			fmt.Fprintf(&b, "%s_sum %s\n", pn, strconv.FormatFloat(s.Sum, 'g', -1, 64))
			fmt.Fprintf(&b, "%s_count %d\n", pn, cum)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writePromHeader(b *strings.Builder, pn, name, kind string) {
	fmt.Fprintf(b, "# HELP %s %s %s\n", pn, kind, name)
	fmt.Fprintf(b, "# TYPE %s %s\n", pn, kind)
}
