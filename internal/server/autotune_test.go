package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"looppart"
	"looppart/internal/autotune"
	"looppart/internal/obs"
	"looppart/internal/telemetry"
)

func TestServerAutotuneEndpoint(t *testing.T) {
	recorder := obs.NewRecorder(8)
	_, ts := newTestServer(t, Config{Recorder: recorder})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/autotune", bytes.NewReader(planBody("rect", 16)))
	req.Header.Set("X-Trace-Id", "autotune-trace")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (%s)", resp.StatusCode, data)
	}
	var res autotune.Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("undecodable tournament result: %v\n%s", err, data)
	}
	if len(res.Candidates) < 2 {
		t.Fatalf("tournament ran %d candidates", len(res.Candidates))
	}
	w := res.Candidates[res.Winner]
	if w.MeasuredMisses > res.Candidates[0].MeasuredMisses {
		t.Errorf("winner measured %d misses, analytic candidate %d", w.MeasuredMisses, res.Candidates[0].MeasuredMisses)
	}
	// The tournament runs under the request's trace.
	rec := waitRecord(t, recorder, "autotune-trace")
	for _, name := range []string{"parse", "analyze", "tournament"} {
		if rec.Spans.Find(name) == nil {
			t.Errorf("autotune flight record lacks span %q", name)
		}
	}

	// The winner is persisted: the next plain plan request hits.
	planResp, _ := postPlan(t, ts.URL, planBody("rect", 16))
	if got := planResp.Header.Get("X-Plancache"); got != "hit" {
		t.Errorf("post-tournament plan served %q, want hit", got)
	}
}

func TestServerAutotuneMethodAndErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/autotune")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", resp.StatusCode)
	}
	bad, _ := json.Marshal(looppart.PlanRequest{Source: "not a nest", Procs: 4})
	resp, err = http.Post(ts.URL+"/v1/autotune", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad nest status = %d, want 422", resp.StatusCode)
	}
}

func TestServerMetricsExposeStore(t *testing.T) {
	store, err := autotune.OpenStore(t.TempDir(), autotune.ModelFingerprint())
	if err != nil {
		t.Fatal(err)
	}
	svc := looppart.NewService(looppart.ServiceOptions{Store: store})
	_, ts := newTestServer(t, Config{Service: svc, Registry: telemetry.New()})

	postPlan(t, ts.URL, planBody("rect", 16))
	m, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mBody, _ := io.ReadAll(m.Body)
	m.Body.Close()
	for _, want := range []string{"autotune_store_entries 1", "autotune_store_quarantined_entries 0"} {
		if !strings.Contains(string(mBody), want) {
			t.Errorf("metrics lack %q:\n%s", want, mBody)
		}
	}
}
