// Package cliflag holds the observability flag plumbing shared by the
// commands: -trace (Chrome trace-event JSON written from span
// snapshots), -metrics (flat metrics dump, JSON or Prometheus-style text
// by file extension), and -pprof (net/http/pprof listener).
package cliflag

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"looppart/internal/obs"
	"looppart/internal/telemetry"
)

// Obs carries the parsed observability flag values and the process trace
// Setup installed for -trace.
type Obs struct {
	TracePath   string
	MetricsPath string
	PprofAddr   string

	process, prev *obs.Trace
}

// Register adds the observability flags to fs.
func (o *Obs) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.TracePath, "trace", "", "write a Chrome trace-event JSON file (load in chrome://tracing)")
	fs.StringVar(&o.MetricsPath, "metrics", "", "write a metrics dump (.json = JSON snapshot, otherwise Prometheus-style text)")
	fs.StringVar(&o.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
}

// Enabled reports whether any flag asks for telemetry output.
func (o *Obs) Enabled() bool { return o.TracePath != "" || o.MetricsPath != "" }

// Setup starts the pprof listener if requested and, when any telemetry
// output is enabled, returns a fresh registry for the caller to install
// with telemetry.SetActive (nil when telemetry stays off). With a
// non-empty process name and -trace, or explain set, it also installs an
// uncapped process trace of that name, so library calls without a
// context record their spans and decision events (Events); Close
// uninstalls it.
func (o *Obs) Setup(process string, explain bool) (*telemetry.Registry, error) {
	if o.PprofAddr != "" {
		addr, err := telemetry.StartPprof(o.PprofAddr)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "pprof: serving on http://%s/debug/pprof\n", addr)
	}
	var reg *telemetry.Registry
	if o.Enabled() {
		reg = telemetry.New()
	}
	if (o.TracePath != "" || explain) && process != "" {
		o.process = obs.NewTrace(process, process, reg)
		o.process.SetCaps(math.MaxInt32, 0)
		o.process.RecordEvents()
		o.prev = obs.SetProcess(o.process)
	}
	return reg, nil
}

// Events returns the decision events the process trace records (nil
// when Setup installed none).
func (o *Obs) Events() *obs.EventLog { return o.process.Events() }

// Close restores the process trace Setup replaced.
func (o *Obs) Close() {
	if o.process != nil {
		obs.SetProcess(o.prev)
		o.process, o.prev = nil, nil
	}
}

// Flush writes the requested output files: the Chrome trace from the
// process trace's spans and decision events plus records (a daemon's
// request trees), and the metrics dump from reg. The process trace's
// root ends first, so the dump carries its latency too. Safe to call
// with a nil registry (writes empty but valid files if paths were given).
func (o *Obs) Flush(reg *telemetry.Registry, records ...*obs.Record) error {
	if tr := o.process; tr != nil {
		tr.Root().End()
		records = append([]*obs.Record{{TraceID: tr.ID(), Start: tr.Start(), Spans: tr.Root().Snapshot(), Events: tr.Events().Events()}}, records...)
	}
	if o.TracePath != "" {
		if err := writeFile(o.TracePath, func(w io.Writer) error { return obs.WriteChromeTrace(w, records, reg) }); err != nil {
			return err
		}
	}
	if o.MetricsPath == "" {
		return nil
	}
	if strings.HasSuffix(o.MetricsPath, ".json") {
		return writeFile(o.MetricsPath, reg.WriteMetricsJSON)
	}
	return writeFile(o.MetricsPath, reg.WriteMetricsText)
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
