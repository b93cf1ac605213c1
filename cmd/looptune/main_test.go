package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"looppart"
	"looppart/internal/autotune"
)

func TestRunCalibrationOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-calibrate", "sim"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "fp") {
		t.Errorf("calibration output %q does not start with a fingerprint ID", out)
	}
	if !strings.Contains(out, "source sim") {
		t.Errorf("calibration output %q does not name its source", out)
	}
}

func TestRunTournamentTable(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-procs", "4", "-k", "3", "-param", "N=12", "example8"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"calibration:", "winner", "rank"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output lacks %q:\n%s", want, out)
		}
	}
}

func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-procs", "4", "-k", "3", "-param", "N=12", "-json", "example8"}, &buf); err != nil {
		t.Fatal(err)
	}
	var res autotune.Result
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatalf("undecodable -json output: %v\n%s", err, buf.String())
	}
	if len(res.Candidates) < 2 {
		t.Fatalf("tournament ran %d candidates", len(res.Candidates))
	}
	w := res.Candidates[res.Winner]
	if w.MeasuredMisses > res.Candidates[0].MeasuredMisses {
		t.Errorf("winner measured %d misses, analytic candidate %d",
			w.MeasuredMisses, res.Candidates[0].MeasuredMisses)
	}
}

// -store persists the canonical plan encoding, so a service (and hence a
// daemon) opened over the same directory serves it as a warm hit.
func TestRunStorePersistsServablePlan(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := run([]string{"-procs", "4", "-k", "3", "-param", "N=12", "-store", dir, "example8"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "stored tuned plan under ") {
		t.Errorf("output lacks store confirmation:\n%s", buf.String())
	}

	store, err := autotune.OpenStore(dir, autotune.ModelFingerprint())
	if err != nil {
		t.Fatal(err)
	}
	svc := looppart.NewService(looppart.ServiceOptions{Store: store})
	if got := svc.Stats().WarmLoaded; got != 1 {
		t.Fatalf("warm-loaded %d entries, want 1", got)
	}
	src, err := loadProgram("example8")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Plan(context.Background(), looppart.PlanRequest{
		Source: src, Params: map[string]int64{"N": 12, "T": 4}, Procs: 4, Strategy: "rect",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "hit" {
		t.Errorf("stored plan served as %q, want hit", resp.Status)
	}
	if res, err := resp.Decode(); err != nil || !res.Autotuned {
		t.Errorf("stored plan not marked autotuned (decode error %v)", err)
	}
}

func TestRunFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nest.loop")
	src := "doall (i, 1, N)\n  doall (j, 1, N)\n    A[i,j] = A[i,j] + B[i+1,j]\n  enddoall\nenddoall\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-procs", "4", "-param", "N=10", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "winner") {
		t.Errorf("file-run output lacks a winner:\n%s", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	cases := map[string][]string{
		"bad calibrate mode": {"-calibrate", "hardware", "example8"},
		"two positional":     {"example8", "example2"},
		"bad strategy":       {"-strategy", "diagonal", "example8"},
		"unknown program":    {"no-such-example"},
		"bad param":          {"-param", "N", "example8"},
	}
	for name, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("%s: run(%v) succeeded, want error", name, args)
		}
	}
}
