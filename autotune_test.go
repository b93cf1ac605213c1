package looppart_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"looppart"
	"looppart/internal/autotune"
	"looppart/internal/paperex"
	"looppart/internal/telemetry"
)

// exampleNests are the nests the examples/ programs run (with bounds
// shrunk so simulation stays fast); the acceptance invariant must hold on
// each of them as well as on the full paper suite.
var exampleNests = map[string]struct {
	src    string
	params map[string]int64
}{
	"quickstart": {`
doall (i, 1, N)
  doall (j, 1, N)
    A[i,j] = B[i-1,j] + B[i+1,j] + B[i,j-1] + B[i,j+1]
  enddoall
enddoall`, map[string]int64{"N": 12}},
	"matmul": {`
doall (i, 1, N)
  doall (j, 1, N)
    doall (k, 1, N)
      l$C[i,j] = C[i,j] + A[i,k] * B[k,j]
    enddoall
  enddoall
enddoall`, map[string]int64{"N": 6}},
	"pipeline": {`
doall (i, 1, N)
  doall (j, 1, N)
    A[i,j] = B[i-2,j] + B[i,j-1] + C[i+j,j] + C[i+j+1,j+3]
  enddoall
enddoall`, map[string]int64{"N": 12}},
	"skewed": {`
doall (i, 101, 124)
  doall (j, 1, 24)
    A[i,j] = B[i+j, i-j-1] + B[i+j+4, i-j+3]
  enddoall
enddoall`, nil},
	"datadist": {`
doall (i, 1, N)
  doall (j, 1, N)
    A[i,j] = B[i,j] + B[i+1,j+3]
  enddoall
enddoall`, map[string]int64{"N": 12}},
	"stencil3d": {`
doall (i, 1, N)
  doall (j, 1, N)
    doall (k, 1, N)
      A[i,j,k] = B[i-1,j,k+1] + B[i,j+1,k] + B[i+1,j-2,k-3]
    enddoall
  enddoall
enddoall`, map[string]int64{"N": 6}},
}

// TestAutotunedPlanNeverWorseThanAnalytic is the subsystem's acceptance
// invariant, end to end: on every examples/ nest and every nest of the
// paper experiment suite, the plan Autotune ships simulates at most as
// many cache misses as the plan the pure analytic pipeline ships.
func TestAutotunedPlanNeverWorseThanAnalytic(t *testing.T) {
	type c struct {
		src    string
		params map[string]int64
	}
	cases := map[string]c{}
	for name, ex := range exampleNests {
		cases["examples/"+name] = c{ex.src, ex.params}
	}
	for name, src := range paperex.All {
		cases["paperex/"+name] = c{src, map[string]int64{"N": 12, "T": 2}}
	}
	const procs = 4
	for name, tc := range cases {
		prog, err := looppart.Parse(tc.src, tc.params)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		analytic, err := prog.Partition(procs, looppart.Rect)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tuned, res, err := prog.Autotune(context.Background(), procs, looppart.Rect, looppart.AutotuneOptions{TopK: 4})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res == nil {
			t.Fatalf("%s: rect autotune returned no tournament", name)
		}
		mAnalytic, err := analytic.Simulate(looppart.SimOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mTuned, err := tuned.Simulate(looppart.SimOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if mTuned.Misses() > mAnalytic.Misses() {
			t.Errorf("%s: autotuned plan %s simulates %d misses, analytic plan %s simulates %d",
				name, tuned.String(), mTuned.Misses(), analytic.String(), mAnalytic.Misses())
		}
	}
}

// Auto with a communication-free nest needs no tournament: the comm-free
// plan already moves nothing between processors.
func TestAutotuneAutoResolvesCommFree(t *testing.T) {
	prog, err := looppart.Parse(paperex.Example2, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, res, err := prog.Autotune(context.Background(), 4, looppart.Auto, looppart.AutotuneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Errorf("comm-free resolution ran a tournament: %+v", res)
	}
	if plan.Slab == nil || !plan.Slab.CommFree {
		t.Errorf("plan = %s, want comm-free slab", plan.String())
	}
}

func TestServiceAutotuneMode(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{AutotuneK: 4})
	if !svc.Autotuned() {
		t.Fatal("AutotuneK did not enable autotune mode")
	}
	req := looppart.PlanRequest{Source: serviceNest, Procs: 16, Strategy: "rect"}
	first, err := svc.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !looppart.MustDecode(t, first).Autotuned {
		t.Error("served plan not marked autotuned")
	}
	if got := looppart.MustDecode(t, first).MeasuredMisses; got <= 0 {
		t.Errorf("measured misses = %d, want > 0", got)
	}
	second, err := svc.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Status != "hit" || !bytes.Equal(first.Raw, second.Raw) {
		t.Errorf("autotuned hit not byte-identical (status %q)", second.Status)
	}
}

func TestServiceTournamentOnDemand(t *testing.T) {
	svc := looppart.NewService(looppart.ServiceOptions{})
	req := looppart.PlanRequest{Source: serviceNest, Procs: 16, Strategy: "rect"}
	res, err := svc.Tournament(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) < 2 {
		t.Fatalf("tournament ran %d candidates", len(res.Candidates))
	}
	w := res.WinnerCandidate()
	if w.MeasuredMisses > res.Candidates[0].MeasuredMisses {
		t.Errorf("winner %d misses > analytic %d", w.MeasuredMisses, res.Candidates[0].MeasuredMisses)
	}
	// The tournament persisted its winner into the cache: the next Plan
	// for the same nest hits.
	resp, err := svc.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "hit" {
		t.Errorf("post-tournament Plan status = %q, want hit", resp.Status)
	}
}

// TestServiceStoreWarmRestart is the persistence acceptance criterion: a
// "restarted daemon" (a second Service over the same store directory)
// serves its first repeat request as a byte-identical hit without
// re-running the search — including under concurrent repeat requests
// (run with -race in scripts/verify.sh).
func TestServiceStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	fp := autotune.ModelFingerprint()
	open := func() *looppart.Service {
		store, err := autotune.OpenStore(dir, fp)
		if err != nil {
			t.Fatal(err)
		}
		return looppart.NewService(looppart.ServiceOptions{Store: store})
	}
	req := looppart.PlanRequest{Source: serviceNest, Procs: 16, Strategy: "rect"}

	svc1 := open()
	first, err := svc1.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != "miss" {
		t.Fatalf("cold request status = %q, want miss", first.Status)
	}

	// "Restart the daemon": a fresh service, fresh empty LRU, same disk.
	svc2 := open()
	if got := svc2.Stats().WarmLoaded; got != 1 {
		t.Fatalf("warm-loaded %d entries, want 1", got)
	}
	const workers = 8
	var wg sync.WaitGroup
	responses := make([]*looppart.PlanResponse, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = svc2.Plan(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if responses[i].Status != "hit" {
			t.Errorf("worker %d: status %q, want hit (no re-search after restart)", i, responses[i].Status)
		}
		if !bytes.Equal(responses[i].Raw, first.Raw) {
			t.Errorf("worker %d: restarted response differs from the original bytes", i)
		}
	}
	if st := svc2.Stats(); st.Searches != 0 {
		t.Errorf("restarted service ran %d searches, want 0", st.Searches)
	}
}

// A store populated in autotune mode serves the tournament winner across
// restarts, and the analytic-vs-autotuned encodings never mix: the store
// key includes the machine fingerprint.
func TestServiceStoreIsolatesFingerprints(t *testing.T) {
	dir := t.TempDir()
	req := looppart.PlanRequest{Source: serviceNest, Procs: 16, Strategy: "rect"}

	model := autotune.ModelFingerprint()
	tunedFp := model
	tunedFp.MissCost = 40 // a differently calibrated machine

	storeA, err := autotune.OpenStore(dir, model)
	if err != nil {
		t.Fatal(err)
	}
	svcA := looppart.NewService(looppart.ServiceOptions{Store: storeA})
	respA, err := svcA.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	storeB, err := autotune.OpenStore(dir, tunedFp)
	if err != nil {
		t.Fatal(err)
	}
	svcB := looppart.NewService(looppart.ServiceOptions{Store: storeB, AutotuneK: 4, Fingerprint: tunedFp})
	if got := svcB.Stats().WarmLoaded; got != 0 {
		t.Fatalf("fingerprint-mismatched store warm-loaded %d entries, want 0", got)
	}
	respB, err := svcB.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if respB.Status != "miss" {
		t.Errorf("differently fingerprinted service served %q, want miss", respB.Status)
	}
	if a, b := looppart.MustDecode(t, respA).Autotuned, looppart.MustDecode(t, respB).Autotuned; !b || a {
		t.Errorf("autotuned flags: A=%v B=%v, want false/true", a, b)
	}
}

// The service's stats expose the store so /metrics can publish it.
func TestServiceStatsIncludeStore(t *testing.T) {
	store, err := autotune.OpenStore(t.TempDir(), autotune.ModelFingerprint())
	if err != nil {
		t.Fatal(err)
	}
	svc := looppart.NewService(looppart.ServiceOptions{Store: store})
	if _, err := svc.Plan(context.Background(), looppart.PlanRequest{Source: serviceNest, Procs: 8}); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Store == nil {
		t.Fatal("stats missing store section")
	}
	if st.Store.Entries != 1 || st.Store.Puts != 1 {
		t.Errorf("store stats = %+v, want 1 entry, 1 put", *st.Store)
	}
	if st.Store.Fingerprint == "" {
		t.Error("store stats missing fingerprint")
	}
	_ = fmt.Sprintf("%+v", st) // the struct must remain printable for the daemon's shutdown line
}

// TestServiceWarmLoadSkipsUndecodableEntries: warm-load decodes each
// stored plan once; an entry whose value is not a plan (intact on disk,
// so the store serves it) is left out of the cache and counted, and the
// valid entry next to it still serves as a hit.
func TestServiceWarmLoadSkipsUndecodableEntries(t *testing.T) {
	dir := t.TempDir()
	fp := autotune.ModelFingerprint()
	store, err := autotune.OpenStore(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	req := looppart.PlanRequest{Source: serviceNest, Procs: 8, Strategy: "rect"}
	first, err := looppart.NewService(looppart.ServiceOptions{Store: store}).Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("rect/p8/not-a-plan", []byte(`"not a plan"`)); err != nil {
		t.Fatal(err)
	}

	svc := looppart.NewService(looppart.ServiceOptions{Store: store})
	reg := telemetry.New()
	reg.Collect(svc.Collect)
	snap := reg.Snapshot()
	if got := svc.Stats().WarmLoaded; got != 1 {
		t.Errorf("warm-loaded %d entries, want 1", got)
	}
	if got := snap.Counters["service.store.warm_skipped"]; got != 1 {
		t.Errorf("service.store.warm_skipped = %d, want 1", got)
	}
	resp, err := svc.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "hit" || !bytes.Equal(resp.Raw, first.Raw) || looppart.MustDecode(t, resp).Rendered != looppart.MustDecode(t, first).Rendered {
		t.Errorf("warm-loaded entry served %q, want a byte-identical decoded hit", resp.Status)
	}
}
