package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"looppart"
	"looppart/internal/telemetry"
)

const testNest = `
doall (i, 1, 64)
  doall (j, 1, 64)
    A[i,j] = B[i,j] + B[i+1,j+3]
  enddoall
enddoall
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Service == nil {
		cfg.Service = looppart.NewService(looppart.ServiceOptions{})
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.New()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func planBody(strategy string, procs int) []byte {
	req := looppart.PlanRequest{Source: testNest, Procs: procs, Strategy: strategy}
	b, _ := json.Marshal(req)
	return b
}

func postPlan(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestServerSingleflightConcurrentIdentical is the acceptance-criterion
// race test: K concurrent identical requests perform exactly one search,
// with the cache-hit counter accounting for the other K−1. A gate holds
// every request until all K are in flight, so they genuinely overlap.
func TestServerSingleflightConcurrentIdentical(t *testing.T) {
	const K = 8
	svc := looppart.NewService(looppart.ServiceOptions{})
	var barrier sync.WaitGroup
	barrier.Add(K)
	s, ts := newTestServer(t, Config{Service: svc, MaxInflight: K})
	s.testPlanGate = func() {
		barrier.Done()
		barrier.Wait()
	}

	body := planBody("rect", 16)
	bodies := make([][]byte, K)
	statuses := make([]string, K)
	var wg sync.WaitGroup
	wg.Add(K)
	for i := 0; i < K; i++ {
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			bodies[i], _ = io.ReadAll(resp.Body)
			statuses[i] = resp.Header.Get("X-Plancache")
		}(i)
	}
	wg.Wait()

	st := svc.Stats()
	if st.Searches != 1 {
		t.Errorf("searches = %d, want exactly 1", st.Searches)
	}
	if st.CacheHits != K-1 {
		t.Errorf("cache hits = %d, want %d", st.CacheHits, K-1)
	}
	misses := 0
	for i := range bodies {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs", i)
		}
		if statuses[i] == "miss" {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d misses, want 1 (statuses %v)", misses, statuses)
	}
}

// TestServerShedsLoad: with one in-flight slot occupied, the next request
// is shed with 429 + Retry-After, and liveness stays reachable.
func TestServerShedsLoad(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{})
	reg := telemetry.New()
	started := make(chan struct{})
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Service: svc, Registry: reg, MaxInflight: 1})
	s.testPlanGate = func() {
		started <- struct{}{}
		<-release
	}

	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(planBody("rect", 16)))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-started // the only slot is now held

	resp, body := postPlan(t, ts.URL, planBody("rect", 16))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("saturated status = %d, want 429 (%s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 lacks Retry-After")
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil || hz.StatusCode != http.StatusOK {
		t.Errorf("healthz during saturation: %v %v", hz, err)
	}
	if hz != nil {
		hz.Body.Close()
	}

	close(release)
	if code := <-done; code != http.StatusOK {
		t.Errorf("held request finished with %d", code)
	}
	if n := reg.Snapshot().Counters["server.shed"]; n != 1 {
		t.Errorf("shed counter = %d, want 1", n)
	}
}

// TestServerGracefulShutdownDrains: Shutdown waits for the in-flight plan
// to complete and the client still receives its 200.
func TestServerGracefulShutdownDrains(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{})
	s := New(Config{Service: svc, Registry: telemetry.New(), MaxInflight: 4})
	started := make(chan struct{})
	release := make(chan struct{})
	s.testPlanGate = func() {
		close(started)
		<-release
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	url := "http://" + ln.Addr().String()
	reqDone := make(chan struct{})
	var code int
	var body []byte
	go func() {
		defer close(reqDone)
		resp, err := http.Post(url+"/v1/plan", "application/json", bytes.NewReader(planBody("rect", 16)))
		if err != nil {
			t.Errorf("in-flight request: %v", err)
			return
		}
		defer resp.Body.Close()
		code = resp.StatusCode
		body, _ = io.ReadAll(resp.Body)
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- hs.Shutdown(ctx)
	}()
	// Shutdown must not kill the in-flight request: give it a moment,
	// then release the plan and expect both to finish cleanly.
	select {
	case <-reqDone:
		t.Fatal("request finished before release — gate broken")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)

	<-reqDone
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"rendered"`)) {
		t.Errorf("drained request: status %d body %s", code, body)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve: %v", err)
	}
}

func TestServerHitIsByteIdentical(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{})
	_, ts := newTestServer(t, Config{Service: svc})

	body := planBody("rect", 16)
	resp1, data1 := postPlan(t, ts.URL, body)
	resp2, data2 := postPlan(t, ts.URL, body)
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("statuses %d, %d", resp1.StatusCode, resp2.StatusCode)
	}
	if got := resp1.Header.Get("X-Plancache"); got != "miss" {
		t.Errorf("first X-Plancache = %q", got)
	}
	if got := resp2.Header.Get("X-Plancache"); got != "hit" {
		t.Errorf("second X-Plancache = %q", got)
	}
	if !bytes.Equal(data1, data2) {
		t.Errorf("responses differ:\n%s\nvs\n%s", data1, data2)
	}
	var res looppart.PlanResult
	if err := json.Unmarshal(data1, &res); err != nil {
		t.Fatalf("response not a PlanResult: %v", err)
	}
	if res.Rendered == "" || res.Kind != "tile" {
		t.Errorf("result = %+v", res)
	}
}

// TestServerCommSets: ?commsets=1 wraps the untouched canonical plan
// bytes with the on-demand communication certificate; a RAW nest gets a
// nonzero word count and the plain response stays free of the field.
func TestServerCommSets(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const rawNest = `
doall (i, 1, 64)
  doall (j, 1, 64)
    A[i,j] = A[i+1,j+3] + 1
  enddoall
enddoall
`
	body, _ := json.Marshal(looppart.PlanRequest{Source: rawNest, Procs: 16, Strategy: "rect"})
	_, plain := postPlan(t, ts.URL, body)
	if bytes.Contains(plain, []byte(`"comm"`)) {
		t.Fatalf("default response carries a comm field:\n%s", plain)
	}
	resp, err := http.Post(ts.URL+"/v1/plan?commsets=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var cr commResponse
	if err := json.Unmarshal(data, &cr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cr.Result, plain) {
		t.Errorf("envelope changed the canonical bytes:\n%s\nvs\n%s", cr.Result, plain)
	}
	if cr.Comm == nil || cr.Comm.Words <= 0 {
		t.Errorf("comm summary = %+v", cr.Comm)
	}
}

// TestServerCommSetsOptIn: a service constructed with CommSets attaches
// the summary to the canonical bytes themselves, hits included.
func TestServerCommSetsOptIn(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{CommSets: true})
	_, ts := newTestServer(t, Config{Service: svc})
	body := planBody("rect", 16)
	_, miss := postPlan(t, ts.URL, body)
	_, hit := postPlan(t, ts.URL, body)
	if !bytes.Equal(miss, hit) {
		t.Fatalf("hit differs from miss:\n%s\nvs\n%s", miss, hit)
	}
	var res looppart.PlanResult
	if err := json.Unmarshal(miss, &res); err != nil {
		t.Fatal(err)
	}
	if res.Comm == nil {
		t.Fatalf("opt-in service served no comm summary: %s", miss)
	}
}

func TestServerExplain(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/plan?explain=1", "application/json", bytes.NewReader(planBody("rect", 16)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var er explainResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Trace, "partition.rect.chosen") {
		t.Errorf("trace lacks chosen event:\n%s", er.Trace)
	}
	var res looppart.PlanResult
	if err := json.Unmarshal(er.Result, &res); err != nil || res.Rendered == "" {
		t.Errorf("explain result malformed: %v %+v", err, res)
	}
}

func TestServerBatch(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{})
	_, ts := newTestServer(t, Config{Service: svc})

	// Four items: three identical (collapse to one search) and one bad.
	good := looppart.PlanRequest{Source: testNest, Procs: 16, Strategy: "rect"}
	bad := looppart.PlanRequest{Source: testNest, Procs: 16, Strategy: "nope"}
	body, _ := json.Marshal(batchRequest{Requests: []looppart.PlanRequest{good, good, good, bad}})
	resp, err := http.Post(ts.URL+"/v1/plan/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var br batchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Responses) != 4 {
		t.Fatalf("%d responses", len(br.Responses))
	}
	for i := 0; i < 3; i++ {
		if br.Responses[i].Error != "" || !bytes.Equal(br.Responses[i].Result, br.Responses[0].Result) {
			t.Errorf("item %d: %+v", i, br.Responses[i])
		}
	}
	if !strings.Contains(br.Responses[3].Error, "unknown strategy") {
		t.Errorf("bad item error = %q", br.Responses[3].Error)
	}
	if st := svc.Stats(); st.Searches != 1 {
		t.Errorf("batch ran %d searches, want 1", st.Searches)
	}
}

func TestServerRejectsMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512})

	get, err := http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan = %d", get.StatusCode)
	}

	resp, _ := postPlan(t, ts.URL, []byte("{not json"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body = %d", resp.StatusCode)
	}

	big, _ := json.Marshal(looppart.PlanRequest{Source: strings.Repeat("x", 2048), Procs: 4})
	resp, _ = postPlan(t, ts.URL, big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body = %d", resp.StatusCode)
	}

	resp, body := postPlan(t, ts.URL, planBody("nope", 16))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unknown strategy = %d (%s)", resp.StatusCode, body)
	}

	resp, _ = postPlan(t, ts.URL, planBody("rect", 0))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("procs 0 = %d", resp.StatusCode)
	}

	empty, _ := json.Marshal(batchRequest{})
	br, err := http.Post(ts.URL+"/v1/plan/batch", "application/json", bytes.NewReader(empty))
	if err != nil {
		t.Fatal(err)
	}
	br.Body.Close()
	if br.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch = %d", br.StatusCode)
	}
}

func TestServerMetricsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if _, data := postPlan(t, ts.URL, planBody("rect", 16)); len(data) == 0 {
		t.Fatal("empty plan response")
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hzBody, _ := io.ReadAll(hz.Body)
	hz.Body.Close()
	if hz.StatusCode != 200 || !strings.Contains(string(hzBody), `"ok"`) {
		t.Errorf("healthz: %d %s", hz.StatusCode, hzBody)
	}

	m, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mBody, _ := io.ReadAll(m.Body)
	m.Body.Close()
	for _, want := range []string{"server_requests_total 1", "plancache_hit_ratio", "service_searches 1"} {
		if !strings.Contains(string(mBody), want) {
			t.Errorf("metrics lack %q:\n%s", want, mBody)
		}
	}
	if strings.Contains(string(mBody), "\nserver_requests ") {
		t.Errorf("metrics still carry the bare-name counter alias:\n%s", mBody)
	}
}

// TestMetricsExpositionIsValid scrapes /metrics with the hot tier on,
// after enough requests to rebuild it, and checks the text format: no
// family gets two # TYPE lines, and no sample precedes its family's
// # TYPE line. The hot tier exports plancache.hot.rebuilds as both a
// counter and a gauge, so the counter must print under its _total
// family only.
func TestMetricsExpositionIsValid(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{HotKeys: 4, HotRebuildEvery: 2})
	_, ts := newTestServer(t, Config{Service: svc})
	for i := 0; i < 6; i++ {
		postPlan(t, ts.URL, planBody("rect", 16))
	}
	if svc.Stats().Hot.Rebuilds == 0 {
		t.Fatal("hot tier never rebuilt")
	}
	m, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(m.Body)
	m.Body.Close()

	typed := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			if typed[f[2]] != "" {
				t.Errorf("family %s has two # TYPE lines", f[2])
			}
			typed[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := strings.Fields(line)[0]
		family := name
		for _, suffix := range []string{"_count", "_sum", "_min", "_max"} {
			if base := strings.TrimSuffix(name, suffix); typed[base] == "summary" {
				family = base
			}
		}
		if typed[family] == "" {
			t.Errorf("sample %q precedes its family's # TYPE line", line)
		}
	}
	if typed["plancache_hot_rebuilds_total"] != "counter" || typed["plancache_hot_rebuilds"] != "gauge" {
		t.Errorf("hot-tier families typed %q / %q", typed["plancache_hot_rebuilds_total"], typed["plancache_hot_rebuilds"])
	}
}

// TestServerTimeoutStillFillsCache: a request whose deadline expires gets
// 503, but the search it started completes and serves the next request
// from the cache.
func TestServerTimeoutStillFillsCache(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{})
	s := New(Config{Service: svc, Registry: telemetry.New(), PlanTimeout: time.Nanosecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The skewed search over a 3-D space is comfortably slower than the
	// 1ns budget.
	req := looppart.PlanRequest{
		Source: "doall (i, 1, 64)\n doall (j, 1, 64)\n  doall (k, 1, 64)\n   A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3]\n  enddoall\n enddoall\nenddoall",
		Procs:  64, Strategy: "skewed",
	}
	body, _ := json.Marshal(req)
	resp, data := postPlan(t, ts.URL, body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", resp.StatusCode, data)
	}

	// The detached search finishes and fills the cache; wait for it, then
	// a fresh server with a sane timeout serves a hit.
	deadline := time.Now().Add(10 * time.Second)
	for svc.Stats().Cache.Entries == 0 {
		if time.Now().After(deadline) {
			t.Fatal("search never filled the cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s2 := New(Config{Service: svc, Registry: telemetry.New()})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp2, _ := postPlan(t, ts2.URL, body)
	if resp2.Header.Get("X-Plancache") != "hit" {
		t.Errorf("post-timeout request = %q, want hit", resp2.Header.Get("X-Plancache"))
	}
}

func TestServerDefaultsApplied(t *testing.T) {
	s := New(Config{Service: looppart.NewService(looppart.ServiceOptions{})})
	if cap(s.sem) <= 0 || s.cfg.PlanTimeout <= 0 || s.cfg.MaxBodyBytes <= 0 {
		t.Errorf("defaults not applied: %+v", s.cfg)
	}
}

func ExampleNew() {
	svc := looppart.NewService(looppart.ServiceOptions{})
	s := New(Config{Service: svc, Registry: telemetry.New()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(looppart.PlanRequest{
		Source: "doall (i, 1, 100)\n doall (j, 1, 100)\n  A[i,j] = B[i+j,i-j-1] + B[i+j+4,i-j+3]\n enddoall\nenddoall",
		Procs:  100,
	})
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var res looppart.PlanResult
	json.NewDecoder(resp.Body).Decode(&res)
	fmt.Println(res.Rendered)
	// Output:
	// comm-free plan for 100 procs: slabs normal=[0 1] width=1 commfree=true
}
