package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Metrics export: a flat JSON dump (the Snapshot, stable field order via
// encoding/json's map sorting) and a Prometheus-style text exposition
// (`# TYPE` comments, metric names with dots mapped to underscores).

// WriteMetricsJSON writes the registry snapshot as indented JSON. A nil
// registry writes an empty snapshot.
func (r *Registry) WriteMetricsJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteMetricsText writes the snapshot in Prometheus text exposition
// format (version 0.0.4): every family gets `# HELP` and `# TYPE` lines,
// counters are exposed under their conventional `_total` name, and
// histograms emit `_count`, `_sum`, `_min`, `_max` samples.
func (r *Registry) WriteMetricsText(w io.Writer) error {
	snap := r.Snapshot()
	for _, name := range sortedKeys(snap.Counters) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w,
			"# HELP %s_total Cumulative count of %s.\n# TYPE %s_total counter\n%s_total %d\n",
			pn, name, pn, pn, snap.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(snap.Gauges) {
		pn := promName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s Current value of %s.\n# TYPE %s gauge\n%s %g\n",
			pn, name, pn, pn, snap.Gauges[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(snap.Histograms) {
		pn := promName(name)
		h := snap.Histograms[name]
		if _, err := fmt.Fprintf(w,
			"# HELP %s Distribution of %s in nanoseconds.\n# TYPE %s summary\n%s_count %d\n%s_sum %d\n%s_min %d\n%s_max %d\n",
			pn, name, pn, pn, h.Count, pn, h.SumNs, pn, h.MinNs, pn, h.MaxNs); err != nil {
			return err
		}
	}
	return nil
}

// PromName exposes the Prometheus name mangling, so the serving layer
// can reference exported metric names (e.g. in /metrics exemplar lines).
func PromName(name string) string { return promName(name) }

// promName maps a dotted instrument name to a Prometheus-legal metric
// name: dots and other non-alphanumerics become underscores.
func promName(name string) string {
	var b strings.Builder
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}
