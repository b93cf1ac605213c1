package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"looppart"
	"looppart/internal/obs"
	"looppart/internal/paperex"
	"looppart/internal/partition"
	"looppart/internal/telemetry"
)

// postExplain sends body to /v1/plan?explain=1 under traceID ("" lets
// the server pick one) and returns the decoded response.
func postExplain(t *testing.T, url, traceID string, body []byte) explainResponse {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPost, url+"/v1/plan?explain=1", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set("X-Trace-Id", traceID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return explainResponse{}
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("explain status %d: %s", resp.StatusCode, data)
		return explainResponse{}
	}
	var er explainResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Errorf("explain response: %v\n%s", err, data)
	}
	return er
}

// exampleBody is a /v1/plan body for a paper example at N=16.
func exampleBody(name, strategy string, procs int) []byte {
	b, _ := json.Marshal(looppart.PlanRequest{
		Source: paperex.All[name], Params: map[string]int64{"N": 16, "T": 2},
		Procs: procs, Strategy: strategy,
	})
	return b
}

// TestExplainCountsIntoServerRegistry: an explain's search counters land
// in the registry /metrics reads, like any other request's.
func TestExplainCountsIntoServerRegistry(t *testing.T) {
	reg := telemetry.New()
	defer telemetry.SetActive(telemetry.SetActive(reg))
	_, ts := newTestServer(t, Config{Registry: reg})

	postExplain(t, ts.URL, "", planBody("rect", 16))
	if got := reg.Counter("partition.rect.candidates").Value(); got == 0 {
		t.Error("partition.rect.candidates did not grow across an explain")
	}
}

// TestExplainFlightRecordHoldsSearch: the explain's parse and search
// spans join the request's own trace.
func TestExplainFlightRecordHoldsSearch(t *testing.T) {
	const traceID = "explain-spans"
	recorder := obs.NewRecorder(8)
	_, ts := newTestServer(t, Config{Recorder: recorder})

	postExplain(t, ts.URL, traceID, planBody("rect", 16))
	rec := waitRecord(t, recorder, traceID)
	for _, name := range []string{"parse", "analyze", "search.rect"} {
		if rec.Spans.Find(name) == nil {
			t.Errorf("explain flight record lacks span %q", name)
		}
	}
}

// TestCacheHitDoesNotWaitForExplain: a cache hit sent while a slow
// skewed explain is in flight returns before the explain does.
func TestCacheHitDoesNotWaitForExplain(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{})
	_, ts := newTestServer(t, Config{Service: svc})
	hitBody := planBody("rect", 16)
	postPlan(t, ts.URL, hitBody)

	before := svc.Stats().Requests
	explained := make(chan struct{})
	go func() {
		defer close(explained)
		postExplain(t, ts.URL, "", exampleBody("matmulsync", "skewed", 16))
	}()
	// Service.Explain counts its request as it starts.
	for svc.Stats().Requests == before {
		select {
		case <-explained:
			t.Fatal("explain finished before it was seen in flight")
		case <-time.After(time.Millisecond):
		}
	}
	resp, _ := postPlan(t, ts.URL, hitBody)
	if got := resp.Header.Get("X-Plancache"); got != "hit" {
		t.Errorf("X-Plancache = %q, want hit", got)
	}
	select {
	case <-explained:
		t.Error("the cache hit returned only after the explain")
	default:
	}
	<-explained
}

// TestConcurrentExplainsMatchAlone: explains of distinct nests running
// together, beside plain requests, each return the trace their nest gives
// when explained alone.
func TestConcurrentExplainsMatchAlone(t *testing.T) {
	// One search worker: the chosen events' evaluated/pruned counts are
	// then independent of scheduling.
	defer partition.SetSearchWorkers(partition.SetSearchWorkers(1))
	explains := [][]byte{
		exampleBody("example2", "auto", 16),
		exampleBody("example3", "rect", 16),
		exampleBody("example8", "rect", 16),
		exampleBody("example10", "skewed", 4),
	}
	alone := make([]string, len(explains))
	for i, body := range explains {
		_, ts := newTestServer(t, Config{})
		alone[i] = postExplain(t, ts.URL, "", body).Trace
		if alone[i] == "" {
			t.Fatalf("explain %d alone returned no trace", i)
		}
	}

	_, ts := newTestServer(t, Config{MaxInflight: 16})
	together := make([]string, len(explains))
	var wg sync.WaitGroup
	for i, body := range explains {
		wg.Add(2)
		go func(i int, body []byte) {
			defer wg.Done()
			together[i] = postExplain(t, ts.URL, fmt.Sprintf("together-%d", i), body).Trace
		}(i, body)
		go func(procs int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(planBody("rect", procs)))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}(4 << i)
	}
	wg.Wait()
	for i := range explains {
		if together[i] != alone[i] {
			t.Errorf("explain %d run concurrently:\n%s\nalone:\n%s", i, together[i], alone[i])
		}
	}
}
