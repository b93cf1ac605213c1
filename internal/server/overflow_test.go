package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"looppart"
)

// Nests whose subscripts sit near the int64 cliffs. Each one used to
// panic a planning goroutine and take the whole daemon down; now each
// must come back as an ordinary planning error naming the overflow.
const (
	// The comm-free search's null-space HNF negates a row holding
	// MinInt64.
	overflowAutoNest = `
doall (i, 1, 64)
  doall (j, 1, 64)
    A[i, j] = A[i+4611686018427387904, j+1] + A[i, j+2]
  enddoall
enddoall
`
	// The self-check's exact enumeration maps i·G for
	// G = -2305843009213693950 past int64; the plan itself is fine.
	overflowRectNest = `
doall (i, 1, 8)
  A[1*i+235782974174] = A[-2305843009213693950*i-4]
enddoall
`
	// The HNF behind the Definition 4 membership test of the two offsets
	// overflows in Analyze.
	overflowBatchNest = `
doall (i, 1, 64)
  doall (j, 1, 64)
    A[2305843009213693952*i+3*j, 5*i+2305843009213693951*j] = A[2305843009213693952*i+3*j+1, 5*i+2305843009213693951*j+7]
  enddoall
enddoall
`
)

func overflowBody(src, strategy string, procs int) []byte {
	b, _ := json.Marshal(looppart.PlanRequest{Source: src, Procs: procs, Strategy: strategy})
	return b
}

// assertStillServes checks the server answers an ordinary request after
// an overflowing one: the process survived and its caches still work.
func assertStillServes(t *testing.T, url string) {
	t.Helper()
	resp, data := postPlan(t, url, planBody("rect", 16))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ordinary request after overflow: status %d: %s", resp.StatusCode, data)
	}
}

func TestServerOverflowAnswers422(t *testing.T) {
	cases := []struct {
		name, src, strategy string
		procs               int
	}{
		{"auto-hnf", overflowAutoNest, "", 4},
		// Every candidate's Theorem 2 volume term is 8 × 2.3e18.
		{"skewed-all-inf", overflowRectNest, "skewed", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{})
			resp, data := postPlan(t, ts.URL, overflowBody(tc.src, tc.strategy, tc.procs))
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("status %d, want 422: %s", resp.StatusCode, data)
			}
			if !strings.Contains(string(data), "int64 overflow") {
				t.Errorf("422 body does not name the overflow: %s", data)
			}
			assertStillServes(t, ts.URL)
		})
	}
}

// TestServerPlansExtentNearMaxInt64: the largest iteration space
// Validate admits plans; the grid's ⌈N/P⌉ extents once wrapped
// negative there and panicked the flight goroutine in tile.Rect.
func TestServerPlansExtentNearMaxInt64(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := "doall (i, 0, 9223372036854775806)\n A[i] = A[i+1]\nenddoall"
	resp, data := postPlan(t, ts.URL, overflowBody(src, "rect", 4))
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"tile_extents":[2305843009213693952]`) {
		t.Fatalf("status %d, want 200 with extents [2^61]: %s", resp.StatusCode, data)
	}
	assertStillServes(t, ts.URL)
}

// TestServerOverflowVerify: a plan whose self-check cannot enumerate its
// element indices in int64 is served with the footprint check reported
// unchecked, not a crashed handler.
func TestServerOverflowVerify(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/plan?verify=1", "application/json",
		bytes.NewReader(overflowBody(overflowRectNest, "rect", 1)))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var vr verifyResponse
	if err := json.Unmarshal(data, &vr); err != nil {
		t.Fatal(err)
	}
	if !vr.Verify.OK() || !strings.Contains(string(data), "overflow int64, model unchecked") {
		t.Errorf("verify report does not mark the model unchecked: %s", data)
	}
	assertStillServes(t, ts.URL)
}

func TestServerOverflowBatchItemError(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := looppart.PlanRequest{Source: overflowBatchNest, Procs: 4}
	body, _ := json.Marshal(batchRequest{Requests: []looppart.PlanRequest{req}})
	resp, err := http.Post(ts.URL+"/v1/plan/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var br batchResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Responses) != 1 || !strings.Contains(br.Responses[0].Error, "int64 overflow") {
		t.Fatalf("batch item did not report the overflow: %s", data)
	}

	// The single-request endpoint reports the same nest as a 422.
	presp, pdata := postPlan(t, ts.URL, overflowBody(overflowBatchNest, "", 4))
	if presp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("/v1/plan status %d, want 422: %s", presp.StatusCode, pdata)
	}
	assertStillServes(t, ts.URL)
}
