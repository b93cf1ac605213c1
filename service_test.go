package looppart_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"looppart"
	"looppart/internal/paperex"
	"looppart/internal/telemetry"
)

var serviceNest = `
doall (i, 1, 64)
  doall (j, 1, 64)
    A[i,j] = B[i,j] + B[i+1,j+3]
  enddoall
enddoall
`

func TestServicePlanHitIsBitIdentical(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{})
	req := looppart.PlanRequest{Source: serviceNest, Procs: 16, Strategy: "rect"}

	first, err := svc.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != "miss" {
		t.Errorf("first status = %q, want miss", first.Status)
	}
	second, err := svc.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Status != "hit" {
		t.Errorf("second status = %q, want hit", second.Status)
	}
	if !bytes.Equal(first.Raw, second.Raw) {
		t.Errorf("hit bytes differ from miss bytes:\n%s\nvs\n%s", first.Raw, second.Raw)
	}
	st := svc.Stats()
	if st.Searches != 1 || st.CacheHits != 1 || st.Requests != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestServiceCanonicalizationSharesEntries(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{})
	renamed := strings.NewReplacer("i,", "row,", "[i", "[row", "j", "col").Replace(serviceNest)
	reordered := strings.Replace(serviceNest, "B[i,j] + B[i+1,j+3]", "B[i+1,j+3] + B[i,j]", 1)

	base, err := svc.Plan(context.Background(), looppart.PlanRequest{Source: serviceNest, Procs: 16})
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{"renamed indices": renamed, "reordered refs": reordered} {
		resp, err := svc.Plan(context.Background(), looppart.PlanRequest{Source: src, Procs: 16})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.Status != "hit" {
			t.Errorf("%s: status = %q, want hit (key %s vs %s)", name, resp.Status, resp.Key, base.Key)
		}
		if !bytes.Equal(resp.Raw, base.Raw) {
			t.Errorf("%s: bytes differ", name)
		}
	}
	if st := svc.Stats(); st.Searches != 1 {
		t.Errorf("searches = %d, want 1", st.Searches)
	}
}

// TestServiceRenderedMatchesLibrary pins the acceptance criterion: the
// served plan line is bit-identical to what the library (and therefore
// cmd/looppart) prints for the same nest/procs/strategy.
func TestServiceRenderedMatchesLibrary(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{})
	for _, tc := range []struct {
		name, src, strategy string
		params              map[string]int64
		procs               int
	}{
		{"example2/auto", paperex.Example2, "auto", nil, 16},
		{"example3/rect", paperex.Example3, "rect", map[string]int64{"N": 64}, 16},
		{"example8/rect", paperex.Example8, "rect", map[string]int64{"N": 32}, 64},
		{"example8/skewed", paperex.Example8, "skewed", map[string]int64{"N": 32}, 16},
		{"example10/auto", paperex.Example10, "auto", map[string]int64{"N": 64}, 16},
	} {
		resp, err := svc.Plan(context.Background(), looppart.PlanRequest{
			Source: tc.src, Params: tc.params, Procs: tc.procs, Strategy: tc.strategy,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		prog, err := looppart.Parse(tc.src, tc.params)
		if err != nil {
			t.Fatal(err)
		}
		strategy, _ := looppart.ParseStrategy(tc.strategy)
		plan, err := prog.Partition(tc.procs, strategy)
		if err != nil {
			t.Fatal(err)
		}
		if got := looppart.MustDecode(t, resp).Rendered; got != plan.String() {
			t.Errorf("%s: served %q != library %q", tc.name, got, plan.String())
		}
		if want := looppart.CanonicalKey(prog, tc.procs, strategy); resp.Key != want {
			t.Errorf("%s: key %q != CanonicalKey %q", tc.name, resp.Key, want)
		}
	}
}

func TestServiceExplain(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{})
	req := looppart.PlanRequest{Source: serviceNest, Procs: 16, Strategy: "rect"}
	resp, trace, err := svc.Explain(req)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(trace, "partition.rect.chosen") {
		t.Errorf("trace lacks the chosen-shape event:\n%s", trace)
	}
	// The explain run fills the cache with the same bytes the normal
	// path would serve.
	cached, err := svc.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Status != "hit" || !bytes.Equal(cached.Raw, resp.Raw) {
		t.Errorf("explain did not prime the cache identically (status %s)", cached.Status)
	}
}

func TestServiceErrorsNotCached(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{})
	// The synchronizing matmul has no communication-free partition, so
	// comm-free fails.
	req := looppart.PlanRequest{
		Source: paperex.MatmulSync, Params: map[string]int64{"N": 16},
		Procs: 16, Strategy: "comm-free",
	}
	for i := 0; i < 2; i++ {
		if _, err := svc.Plan(context.Background(), req); err == nil {
			t.Fatalf("request %d: expected error", i)
		}
	}
	st := svc.Stats()
	if st.Errors != 2 || st.Searches != 2 {
		t.Errorf("stats = %+v (errors must not be cached)", st)
	}

	if _, err := svc.Plan(context.Background(), looppart.PlanRequest{Source: serviceNest, Procs: 0}); err == nil {
		t.Error("procs 0 accepted")
	}
	if _, err := svc.Plan(context.Background(), looppart.PlanRequest{Source: serviceNest, Procs: 4, Strategy: "nope"}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := svc.Plan(context.Background(), looppart.PlanRequest{Source: "not a loop", Procs: 4}); err == nil {
		t.Error("parse error accepted")
	}
}

func TestParseStrategy(t *testing.T) {
	for _, s := range []looppart.Strategy{
		looppart.Auto, looppart.Rect, looppart.Skewed, looppart.CommFree,
		looppart.Rows, looppart.Columns, looppart.Blocks, looppart.AbrahamHudak,
	} {
		got, ok := looppart.ParseStrategy(s.String())
		if !ok || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v", s.String(), got, ok)
		}
	}
	if _, ok := looppart.ParseStrategy("unknown"); ok {
		t.Error("ParseStrategy accepted an unknown name")
	}
}

// TestServiceDecodedHitMatchesMiss pins the bytes-only cache contract: a
// hit carries only the cached bytes, and its Decode must equal the
// struct the miss built — and each response must own its decoded
// struct, so a caller reassigning fields cannot corrupt later hits.
func TestServiceDecodedHitMatchesMiss(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{})
	req := looppart.PlanRequest{Source: serviceNest, Procs: 16, Strategy: "rect"}

	miss, err := svc.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := svc.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Status != "hit" {
		t.Fatalf("second status = %q, want hit", hit.Status)
	}
	missRes, hitRes := looppart.MustDecode(t, miss), looppart.MustDecode(t, hit)
	if !reflect.DeepEqual(missRes, hitRes) {
		t.Errorf("hit result %+v != miss result %+v", hitRes, missRes)
	}
	if hitRes == missRes {
		t.Error("hit and miss share one decoded struct; responses must own theirs")
	}
	if looppart.MustDecode(t, hit) != hitRes {
		t.Error("Decode parsed again instead of returning the response's struct")
	}

	// Clobber the hit's struct; the next hit must be pristine.
	hitRes.Rendered = "clobbered"
	hitRes.Procs = -1
	again, err := svc.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if againRes := looppart.MustDecode(t, again); !reflect.DeepEqual(missRes, againRes) {
		t.Errorf("a caller's write leaked into the cache: %+v", againRes)
	}
	if !bytes.Equal(miss.Raw, again.Raw) {
		t.Error("raw bytes drifted across hits")
	}

	// Requests that coalesce onto one search each decode their own struct:
	// the owner keeps the one the search built, waiters parse the bytes.
	const K = 6
	slow := looppart.PlanRequest{
		Source: "doall (i, 1, 32)\n doall (j, 1, 32)\n  doall (k, 1, 32)\n   A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3]\n  enddoall\n enddoall\nenddoall",
		Procs:  8, Strategy: "skewed",
	}
	resps := make([]*looppart.PlanResponse, K)
	errs := make([]error, K)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range resps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if resps[i], errs[i] = svc.Plan(context.Background(), slow); errs[i] == nil {
				_, errs[i] = resps[i].Decode()
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent request %d: %v", i, err)
		}
	}
	first := looppart.MustDecode(t, resps[0])
	for _, r := range resps[1:] {
		if res := looppart.MustDecode(t, r); res == first || !reflect.DeepEqual(res, first) {
			t.Errorf("%s response shares or differs from another's struct: %+v vs %+v", r.Status, res, first)
		}
	}
}

// TestServiceCountersAgree runs a mix of misses, hits, errors and
// singleflight joins, then checks that the three views of the service's
// counters agree: Stats(), the service.* gauges, and the *_total counters
// of the registry's text exposition. Each event is counted once, by the
// service, and the registry only reads it.
func TestServiceCountersAgree(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{})
	reg := telemetry.New()
	reg.Collect(svc.Collect)
	ctx := context.Background()
	statuses := map[string]int64{}
	var errs int64
	plan := func(req looppart.PlanRequest) {
		resp, err := svc.Plan(ctx, req)
		if err != nil {
			errs++
			return
		}
		statuses[resp.Status]++
	}

	for procs := 2; procs <= 8; procs *= 2 {
		req := looppart.PlanRequest{Source: serviceNest, Procs: procs, Strategy: "rect"}
		plan(req) // miss
		plan(req) // hit
	}
	plan(looppart.PlanRequest{Source: serviceNest, Procs: 4, Strategy: "nope"})
	plan(looppart.PlanRequest{Source: "not a loop", Procs: 4})

	// K identical requests for a slow skewed search, released together:
	// one owns the flight, the rest join it.
	const K = 8
	slow := looppart.PlanRequest{
		Source: "doall (i, 1, 32)\n doall (j, 1, 32)\n  doall (k, 1, 32)\n   A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3]\n  enddoall\n enddoall\nenddoall",
		Procs:  8, Strategy: "skewed",
	}
	resps := make([]*looppart.PlanResponse, K)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range resps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resps[i], _ = svc.Plan(ctx, slow)
		}(i)
	}
	close(start)
	wg.Wait()
	for _, r := range resps {
		if r == nil {
			t.Fatal("concurrent request failed")
		}
		statuses[r.Status]++
	}
	if statuses["dedup"] == 0 {
		t.Fatalf("no request joined the slow flight: %v", statuses)
	}

	st := svc.Stats()
	total := errs
	for _, n := range statuses {
		total += n
	}
	if st.Requests != total || st.Errors != errs || st.Searches != statuses["miss"] ||
		st.CacheHits != statuses["hit"]+statuses["dedup"] {
		t.Errorf("Stats() = %+v, want the served mix %v with %d errors", st, statuses, errs)
	}
	snap := reg.Snapshot()
	if snap.Gauges["service.searches"] != float64(st.Searches) || snap.Gauges["service.cache_hits"] != float64(st.CacheHits) {
		t.Errorf("service gauges %v disagree with Stats() %+v", snap.Gauges, st)
	}
	var text bytes.Buffer
	if err := reg.WriteMetricsText(&text); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		"service_plan_requests_total":  st.Requests,
		"service_plan_errors_total":    st.Errors,
		"service_plan_search_total":    st.Searches,
		"service_plan_cache_hit_total": st.CacheHits,
		"plancache_hits_total":         st.Cache.Hits,
		"plancache_misses_total":       st.Cache.Misses,
	} {
		if line := fmt.Sprintf("\n%s %d\n", name, want); !strings.Contains(text.String(), line) {
			t.Errorf("exposition lacks %q:\n%s", strings.TrimSpace(line), text.String())
		}
	}
}
