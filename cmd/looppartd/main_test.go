package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"looppart"
)

// startDaemon runs the daemon on an ephemeral port and returns its base
// URL plus a stop function that triggers the graceful-shutdown path and
// waits for it.
func startDaemon(t *testing.T, extraArgs ...string) (url string, stop func() (string, error)) {
	t.Helper()
	dir := t.TempDir()
	portfile := filepath.Join(dir, "port")
	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-portfile", portfile}, extraArgs...)
	go func() { done <- run(ctx, args, &out) }()

	deadline := time.Now().Add(10 * time.Second)
	var addr []byte
	for {
		var err error
		if addr, err = os.ReadFile(portfile); err == nil && len(addr) > 0 {
			break
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("daemon never wrote its portfile (output: %s)", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return "http://" + string(addr), func() (string, error) {
		cancel()
		select {
		case err := <-done:
			return out.String(), err
		case <-time.After(20 * time.Second):
			t.Fatal("daemon did not shut down")
			return out.String(), nil
		}
	}
}

func TestDaemonServesAndShutsDownCleanly(t *testing.T) {
	url, stop := startDaemon(t)

	body, _ := json.Marshal(looppart.PlanRequest{
		Source: "doall (i, 1, 64)\n A[i] = B[i+1]\nenddoall", Procs: 8, Strategy: "rect",
	})
	var payloads [2][]byte
	var statuses [2]string
	for i := range payloads {
		resp, err := http.Post(url+"/v1/plan", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		payloads[i], _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, resp.StatusCode, payloads[i])
		}
		statuses[i] = resp.Header.Get("X-Plancache")
	}
	if statuses[0] != "miss" || statuses[1] != "hit" {
		t.Errorf("statuses = %v, want [miss hit]", statuses)
	}
	if !bytes.Equal(payloads[0], payloads[1]) {
		t.Error("hit response differs from miss response")
	}

	hz, err := http.Get(url + "/healthz")
	if err != nil || hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", hz, err)
	}
	hz.Body.Close()
	m, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(m.Body)
	m.Body.Close()
	if !strings.Contains(string(metrics), "\nplancache_hits_total 1\n") {
		t.Errorf("metrics lack the cache-hit counter:\n%s", metrics)
	}
	if strings.Contains(string(metrics), "\nplancache_hits ") {
		t.Errorf("metrics still carry the bare-name counter alias:\n%s", metrics)
	}

	out, err := stop()
	if err != nil {
		t.Fatalf("daemon exited with %v (output: %s)", err, out)
	}
	if !strings.Contains(out, "served 2 requests (1 searches, 1 cache hits)") {
		t.Errorf("shutdown summary missing or wrong:\n%s", out)
	}
}

func TestDaemonWritesObservabilityFilesOnShutdown(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	url, stop := startDaemon(t, "-trace", tracePath, "-metrics", metricsPath)

	body, _ := json.Marshal(looppart.PlanRequest{
		Source: "doall (i, 1, 32)\n A[i] = B[i]\nenddoall", Procs: 4,
	})
	resp, err := http.Post(url+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := stop(); err != nil {
		t.Fatal(err)
	}

	trace, err := os.ReadFile(tracePath)
	if err != nil || !bytes.HasPrefix(bytes.TrimSpace(trace), []byte("[")) {
		t.Errorf("trace file: %v %q", err, trace)
	}
	// The trace holds the flight recorder's request tree.
	for _, span := range []string{"server.plan", "parse", "cache.lookup", "search"} {
		if !bytes.Contains(trace, []byte(`"name":"`+span+`","ph":"X"`)) {
			t.Errorf("trace lacks the request's %s span: %s", span, trace)
		}
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	mdata, err := os.ReadFile(metricsPath)
	if err != nil || json.Unmarshal(mdata, &snap) != nil || snap.Counters["server.requests"] != 1 {
		t.Errorf("metrics file: %v %s", err, mdata)
	}
}

func TestLoadgenAgainstDaemon(t *testing.T) {
	url, stop := startDaemon(t)
	defer stop()

	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-loadgen", "-url", url, "-n", "20", "-c", "4", "-procs", "8", "example2",
	}, &out)
	if err != nil {
		t.Fatalf("loadgen: %v (output: %s)", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "20 requests") || !strings.Contains(s, "20 ok") {
		t.Errorf("loadgen summary:\n%s", s)
	}
	// 1 search, 19 served from cache/singleflight.
	if !strings.Contains(s, "cache hits 19/20") {
		t.Errorf("loadgen hit accounting:\n%s", s)
	}
	// The latency report carries percentiles, and the slowest requests
	// are named by the trace ID the daemon echoed, for /debug/flightrec.
	for _, want := range []string{"0 non-2xx", "p50 ", "p95 ", "p99 ", "loadgen: slow trace "} {
		if !strings.Contains(s, want) {
			t.Errorf("loadgen report lacks %q:\n%s", want, s)
		}
	}
}

// TestLoadgenFailedRequestsExitNonZero: a request the daemon rejects
// (unknown strategy → 422) counts as failed and makes the loadgen's run
// return an error, so scripted drivers cannot miss a broken workload.
func TestLoadgenFailedRequestsExitNonZero(t *testing.T) {
	url, stop := startDaemon(t)
	defer stop()

	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-loadgen", "-url", url, "-n", "4", "-c", "2", "-procs", "8", "-strategy", "nope", "example2",
	}, &out)
	if err == nil {
		t.Fatalf("loadgen with failing requests returned nil error (output: %s)", out.String())
	}
	if !strings.Contains(err.Error(), "4 requests failed") {
		t.Errorf("loadgen error = %v, want the failure count", err)
	}
	if !strings.Contains(out.String(), "4 non-2xx (0 shed, 4 failed)") {
		t.Errorf("loadgen non-2xx accounting:\n%s", out.String())
	}
}

func TestLoadgenBatchMode(t *testing.T) {
	url, stop := startDaemon(t)
	defer stop()

	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-loadgen", "-url", url, "-n", "5", "-c", "2", "-batch", "4", "-procs", "8", "example2",
	}, &out)
	if err != nil {
		t.Fatalf("loadgen -batch: %v (output: %s)", err, out.String())
	}
	if !strings.Contains(out.String(), "batches of 4") {
		t.Errorf("loadgen batch summary:\n%s", out.String())
	}
}

func TestLoadgenValidation(t *testing.T) {
	if err := run(context.Background(), []string{"-loadgen"}, io.Discard); err == nil {
		t.Error("loadgen without -url accepted")
	}
	if err := run(context.Background(), []string{"-loadgen", "-url", "http://x", "-n", "0"}, io.Discard); err == nil {
		t.Error("loadgen with -n 0 accepted")
	}
	if err := run(context.Background(), []string{"extra-arg"}, io.Discard); err == nil {
		t.Error("serve mode with a positional argument accepted")
	}
}

// TestDaemonStoreSurvivesRestart is the persistence acceptance criterion
// at the daemon level: a daemon restarted against a populated -store
// serves its first repeat request as a byte-identical hit without
// re-running the search.
func TestDaemonStoreSurvivesRestart(t *testing.T) {
	storeDir := t.TempDir()
	body, _ := json.Marshal(looppart.PlanRequest{
		Source: "doall (i, 1, 64)\n A[i] = B[i+1]\nenddoall", Procs: 8, Strategy: "rect",
	})
	post := func(url string) (string, []byte) {
		resp, err := http.Post(url+"/v1/plan", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d (%s)", resp.StatusCode, data)
		}
		return resp.Header.Get("X-Plancache"), data
	}

	url1, stop1 := startDaemon(t, "-store", storeDir)
	status1, payload1 := post(url1)
	if status1 != "miss" {
		t.Fatalf("cold daemon served %q, want miss", status1)
	}
	if out, err := stop1(); err != nil {
		t.Fatalf("first daemon exit: %v (%s)", err, out)
	}

	url2, stop2 := startDaemon(t, "-store", storeDir)
	defer stop2()
	status2, payload2 := post(url2)
	if status2 != "hit" {
		t.Errorf("restarted daemon served %q, want hit (no re-search)", status2)
	}
	if !bytes.Equal(payload1, payload2) {
		t.Errorf("restarted response differs:\n%s\nvs\n%s", payload1, payload2)
	}
}

// The -autotune and -calibrate flags switch the daemon to measured
// tournaments; served plans carry the autotuned marker.
func TestDaemonAutotuneMode(t *testing.T) {
	url, stop := startDaemon(t, "-autotune", "3", "-calibrate", "sim")
	defer stop()

	body, _ := json.Marshal(looppart.PlanRequest{
		Source: "doall (i, 1, 32)\n doall (j, 1, 32)\n  A[i,j] = B[i,j] + B[i+1,j+3]\n enddoall\nenddoall",
		Procs:  8, Strategy: "rect",
	})
	resp, err := http.Post(url+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, data)
	}
	var res looppart.PlanResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Autotuned || res.MeasuredMisses <= 0 {
		t.Errorf("autotuned daemon served %+v, want autotuned with measured misses", res)
	}
}

func TestDaemonRejectsBadCalibrateMode(t *testing.T) {
	err := run(context.Background(), []string{"-calibrate", "guesswork"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "calibrate") {
		t.Errorf("bad -calibrate mode: %v", err)
	}
}
