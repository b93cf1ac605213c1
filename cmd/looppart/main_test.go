package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"looppart"
	"looppart/internal/paperex"
	"looppart/internal/partition"
)

func TestRunExample2(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-procs", "100", "example2"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"=== analysis ===",
		"uniformly intersecting classes: 2",
		"communication-free normals: [[0 1]]",
		"comm-free plan for 100 procs",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output", want)
		}
	}
}

func TestRunWithStrategyAndParams(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-procs", "8", "-strategy", "rect", "-param", "N=24", "example8"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "rect plan for 8 procs") {
		t.Errorf("output: %s", b.String())
	}
}

func TestRunGenEmitsKernel(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-procs", "4", "-strategy", "blocks", "-gen", "example6"}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "func RunTile(") {
		t.Errorf("kernel missing from output")
	}
}

func TestRunGenRejectsSlabPlan(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-procs", "100", "-strategy", "comm-free", "-gen", "example2"}, &b)
	if err == nil || !strings.Contains(err.Error(), "tile-shaped plan") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.loop")
	src := "doall (i, 1, 16)\n A[i] = A[i] + 1\nenddoall\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{"-procs", "4", path}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "=== partition ===") {
		t.Error("partition section missing")
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{},                                 // no program
		{"nonexistent-file.loop"},          // unknown file
		{"-strategy", "bogus", "example2"}, // bad strategy
		{"-param", "N", "example2"},        // malformed param
		{"-procs", "100000", "example2"},   // infeasible
	}
	for _, args := range cases {
		var b strings.Builder
		if err := run(args, &b); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

func TestParamFlag(t *testing.T) {
	p := paramFlags{}
	if err := p.Set("N=32"); err != nil {
		t.Fatal(err)
	}
	if p["N"] != 32 {
		t.Fatalf("p = %v", p)
	}
	if err := p.Set("bad"); err == nil {
		t.Error("malformed param accepted")
	}
	if err := p.Set("N=abc"); err == nil {
		t.Error("non-numeric param accepted")
	}
	if p.String() == "" {
		t.Error("empty String")
	}
}

func TestRunGenSkewedKernel(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-procs", "12", "-strategy", "skewed", "-param", "N=36", "-gen", "example3"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "func RunTile(c0, c1 int") {
		t.Errorf("skewed kernel missing:\n%s", out)
	}
	if !strings.Contains(out, "ceilDiv") {
		t.Error("FM bounds helpers missing")
	}
}

func TestRunExplainPrintsDecisionTrace(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-procs", "16", "-explain", "-strategy", "rect", "example2"}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"=== decision trace ===",
		"partition.rect.candidate",
		"partition.rect.chosen",
		"analysis.class",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in -explain output", want)
		}
	}
}

// TestExplainMatchesService pins -explain's decision-trace section to the
// trace Service.Explain returns for the same request.
func TestExplainMatchesService(t *testing.T) {
	defer partition.SetSearchWorkers(partition.SetSearchWorkers(1))
	var b strings.Builder
	if err := run([]string{"-procs", "16", "-param", "N=24", "-explain", "-strategy", "rect", "example8"}, &b); err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(b.String(), "=== decision trace ===\n")
	if !ok {
		t.Fatalf("no decision trace in:\n%s", b.String())
	}
	_, trace, err := looppart.NewService(looppart.ServiceOptions{}).Explain(context.Background(), looppart.PlanRequest{
		Source: paperex.All["example8"], Params: map[string]int64{"N": 24, "T": 4}, Procs: 16, Strategy: "rect",
	})
	if err != nil {
		t.Fatal(err)
	}
	if section != trace {
		t.Errorf("-explain trace differs from Service.Explain:\n got: %s\nwant: %s", section, trace)
	}
}

func TestRunTraceAndMetricsFiles(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	metrics := filepath.Join(dir, "metrics.txt")
	var b strings.Builder
	err := run([]string{"-procs", "16", "-trace", trace, "-metrics", metrics, "example8"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	// With telemetry on, the run also simulates so the exports carry
	// miss counters.
	if !strings.Contains(b.String(), "=== simulation ===") {
		t.Errorf("telemetry run did not print the simulation section")
	}
	var events []map[string]any
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON event array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
	text, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	// Non-.json metrics paths get the Prometheus text form.
	if !strings.Contains(string(text), "# TYPE") {
		t.Errorf("metrics text dump missing # TYPE lines:\n%s", text)
	}
	if !strings.Contains(string(text), "cold_misses") {
		t.Errorf("metrics dump missing simulation counters:\n%s", text)
	}
}

func TestRunFromStdin(t *testing.T) {
	src := "doall (i, 1, 16)\n A[i] = A[i] + 1\nenddoall\n"
	path := filepath.Join(t.TempDir(), "stdin.loop")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	orig := os.Stdin
	os.Stdin = f
	defer func() { os.Stdin = orig }()

	var fromStdin strings.Builder
	if err := run([]string{"-procs", "4", "-"}, &fromStdin); err != nil {
		t.Fatal(err)
	}
	var fromFile strings.Builder
	if err := run([]string{"-procs", "4", path}, &fromFile); err != nil {
		t.Fatal(err)
	}
	if fromStdin.String() != fromFile.String() {
		t.Errorf("stdin output differs from file output:\n%s\nvs\n%s", fromStdin.String(), fromFile.String())
	}
}

// TestServedPlanMatchesCLI is the serving golden test: for each
// nest/procs/strategy, the plan line the service returns must appear
// byte-for-byte in what this CLI prints.
func TestServedPlanMatchesCLI(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{})
	for _, tc := range []struct {
		example, strategy string
		procs             int
	}{
		{"example2", "auto", 100},
		{"example3", "rect", 16},
		{"example8", "rect", 64},
		{"example8", "skewed", 16},
		{"example10", "auto", 16},
	} {
		resp, err := svc.Plan(context.Background(), looppart.PlanRequest{
			Source:   paperex.All[tc.example],
			Params:   map[string]int64{"N": 64, "T": 4},
			Procs:    tc.procs,
			Strategy: tc.strategy,
		})
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.example, tc.strategy, err)
		}
		var cli strings.Builder
		args := []string{"-procs", strconv.Itoa(tc.procs), "-strategy", tc.strategy, tc.example}
		if err := run(args, &cli); err != nil {
			t.Fatalf("%s/%s: %v", tc.example, tc.strategy, err)
		}
		res, err := resp.Decode()
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.example, tc.strategy, err)
		}
		if !strings.Contains(cli.String(), res.Rendered) {
			t.Errorf("%s/%s: served plan %q not found in CLI output:\n%s",
				tc.example, tc.strategy, res.Rendered, cli.String())
		}
	}
}
