package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// The three workloads' untraced runs, which give the end-to-end metrics.

const (
	setupReps      = 9    // set-ups per run; setup_s is their median
	hitKeyCount    = 64   // distinct keys in hit_repeat
	hitWarmOps     = 1000 // hit_repeat warm-up requests, part of set-up
	zipfLen        = 1 << 17
	qualityPrefix  = 1024 // cold_plan requests whose plans feed the quality metrics
	gapPlans       = 48   // served tile plans simulated for model_gap_pct
	verifyPlans    = 16   // served plans re-verified in process after a run
	certifyListLen = 48   // the 36 paper plans and 12 random ones
	clients        = 2    // closed-loop callers, one keep-alive connection each
)

// coldTimeout is cold_plan's -timeout: above the slowest request in any
// cold list, so no search is cut short and left running detached.
const coldTimeout = "120s"

func bodiesOf(reqs []request) [][]byte {
	out := make([][]byte, len(reqs))
	for i := range reqs {
		out[i] = reqs[i].body()
	}
	return out
}

func newClients(url string) []*client {
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(url)
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

// checkReply returns why a /v1/plan reply fails, or "".
func checkReply(rep reply, err error, wantCache string) string {
	switch {
	case err != nil:
		return "no response: " + err.Error()
	case rep.status != 200:
		return fmt.Sprintf("status %d: %s", rep.status, bytes.TrimSpace(rep.body))
	case rep.cache != wantCache:
		return fmt.Sprintf("served as %q, want %q", rep.cache, wantCache)
	}
	return ""
}

// fill requests every key once and returns the bodies, recording any
// failure against o.
func fill(o *outcome, c *client, keys []request, bodies [][]byte) [][]byte {
	first := make([][]byte, len(keys))
	for k := range keys {
		rep, err := c.plan(bodies[k])
		if why := checkReply(rep, err, "miss"); why != "" {
			o.fail("fill %s: %s", keys[k].String(), why)
			continue
		}
		first[k] = rep.body
	}
	return first
}

// servingMetrics sets the metrics every served workload reports.
func servingMetrics(o *outcome, res loopResult, cpu time.Duration, rss float64, setups []time.Duration) {
	o.Attempted, o.Failed = res.attempted, len(res.failed)
	o.failures = append(o.failures, res.failed...)
	lat := ms(res.lats)
	o.set("throughput_ops_per_s", float64(len(res.lats))/res.elapsed.Seconds(), "ops/s")
	o.set("latency_p50_ms", quantile(lat, 0.50), "ms")
	o.set("latency_p99_ms", quantile(lat, 0.99), "ms")
	// The CPU reading also covers the ops still running when the window
	// closed, so it is shared over every successful op.
	if ok := res.attempted - len(res.failed); ok > 0 {
		o.set("cpu_ms_per_op", float64(cpu)/float64(time.Millisecond)/float64(ok), "ms")
	}
	o.set("peak_rss_mb", rss, "MiB")
	o.set("setup_s", median(seconds(setups)), "s")
	if len(res.lats) < 1000 {
		fmt.Printf("note: %d successful ops; fewer than 10 fall beyond p99\n", len(res.lats))
	}
}

// quality sets plan_traffic_mean and model_gap_pct over the served tile
// plans of paper examples (nil bodies were not served), and re-verifies a
// seeded sample of all served plans in process. The paper part of every
// list is the same for every seed, so both figures are steady and move
// only when the planner picks different plans.
func quality(o *outcome, seed int64, reqs []request, bodies [][]byte) {
	var traffic, gaps []float64
	for i, raw := range bodies {
		if raw == nil || reqs[i].name == "random" {
			continue
		}
		sp, err := decodeServed(raw)
		if err != nil {
			o.fail("%s: served body does not decode: %v", reqs[i].String(), err)
			continue
		}
		if sp.Kind != "tile" {
			continue
		}
		traffic = append(traffic, sp.PredictedTraffic)
		if len(gaps) < gapPlans {
			if g, ok := modelGap(o, &reqs[i], raw); ok {
				gaps = append(gaps, g)
			}
		}
	}
	o.set("plan_traffic_mean", mean(traffic), "words")
	o.set("model_gap_pct", 100*mean(gaps), "%")

	svc := newService()
	var served []int
	for i, raw := range bodies {
		if raw != nil {
			served = append(served, i)
		}
	}
	for _, j := range sample(seed, len(served), verifyPlans) {
		i := served[j]
		if why := verifyServed(svc, &reqs[i], bodies[i]); why != "" {
			o.fail("verify %s: %s", reqs[i].String(), why)
		}
	}
}

// modelGap returns |predicted footprint − simulated cold misses per
// processor| ÷ simulated for the served tile plan raw.
func modelGap(o *outcome, r *request, raw []byte) (float64, bool) {
	pl, err := servedPlanOf(r, raw)
	if err != nil {
		o.fail("%s: served plan does not rebuild: %v", r.String(), err)
		return 0, false
	}
	return gapOf(o, r, pl)
}

func gapOf(o *outcome, r *request, pl *plan) (float64, bool) {
	f := factsOf(pl)
	if !f.tile || !f.concrete {
		return 0, false
	}
	cold, _, err := simulate(pl)
	if err != nil {
		o.fail("%s: simulate: %v", r.String(), err)
		return 0, false
	}
	perProc := float64(cold) / float64(r.Procs)
	if perProc == 0 {
		return 0, false
	}
	return math.Abs(f.predictedFootprint-perProc) / perProc, true
}

// ---- hit_repeat ----

func hitRepeat(cfg config) (*outcome, error) {
	keys := hitKeys(cfg.seed, hitKeyCount)
	bodies := bodiesOf(keys)
	seq := zipfSequence(cfg.seed, len(keys), zipfLen)
	o := &outcome{}
	var (
		d      *daemon
		first  [][]byte
		cs     []*client
		setups []time.Duration
	)
	op := func(w, i int) string {
		k := seq[i%len(seq)]
		rep, err := cs[w].plan(bodies[k])
		why := checkReply(rep, err, "hit")
		if why == "" && !bytes.Equal(rep.body, first[k]) {
			why = "body differs from the key's first answer"
		}
		if why != "" {
			return keys[k].String() + ": " + why
		}
		return ""
	}
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			closeClients(cs)
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, _, err = startDaemon(cfg.daemon, cfg.dir); err != nil {
			return nil, err
		}
		cs = newClients(d.url)
		first = fill(o, cs[0], keys, bodies)
		warm := closedLoop(clients, time.Minute, hitWarmOps, op)
		o.failures = append(o.failures, warm.failed...)
		setups = append(setups, time.Since(t0))
	}
	defer d.stop()
	defer closeClients(cs)

	if err := resetPeakRSS(d.pid()); err != nil {
		return nil, err
	}
	cpu0, err := cpuTime(d.pid())
	if err != nil {
		return nil, err
	}
	res := closedLoop(clients, cfg.seconds, 0, func(w, i int) string { return op(w, hitWarmOps+i) })
	cpu1, err := cpuTime(d.pid())
	if err != nil {
		return nil, err
	}
	rss, err := peakRSS(d.pid())
	if err != nil {
		return nil, err
	}
	servingMetrics(o, res, cpu1-cpu0, rss, setups)
	quality(o, cfg.seed, keys, first)
	return o, nil
}

// ---- cold_plan ----

// coldListLen sizes the cold list so that no run can exhaust it: about
// twice the fastest rate seen (1600 requests/s on 2 cores).
func coldListLen(d time.Duration) int { return int(d.Seconds()*3000) + 2000 }

func coldPlan(cfg config) (*outcome, error) {
	list := coldList(cfg.seed, coldListLen(cfg.seconds))
	bodies := bodiesOf(list)
	o := &outcome{}
	var (
		d      *daemon
		setups []time.Duration
	)
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			d.stop()
		}
		var boot time.Duration
		var err error
		if d, boot, err = startDaemon(cfg.daemon, cfg.dir, "-timeout", coldTimeout); err != nil {
			return nil, err
		}
		setups = append(setups, boot)
	}
	defer d.stop()
	cs := newClients(d.url)
	defer closeClients(cs)

	served := make([][]byte, len(list))
	if err := resetPeakRSS(d.pid()); err != nil {
		return nil, err
	}
	cpu0, err := cpuTime(d.pid())
	if err != nil {
		return nil, err
	}
	res := closedLoop(clients, cfg.seconds, len(list), func(w, i int) string {
		rep, err := cs[w].plan(bodies[i])
		if why := checkReply(rep, err, "miss"); why != "" {
			return list[i].String() + ": " + why
		}
		served[i] = rep.body
		return ""
	})
	cpu1, err := cpuTime(d.pid())
	if err != nil {
		return nil, err
	}
	rss, err := peakRSS(d.pid())
	if err != nil {
		return nil, err
	}
	if res.attempted >= len(list) {
		o.fail("cold list of %d requests exhausted before the timed phase ended", len(list))
	}
	servingMetrics(o, res, cpu1-cpu0, rss, setups)
	n := min(qualityPrefix, len(list))
	for i := 0; i < n; i++ {
		if served[i] == nil {
			o.fail("request %d (%s) of the quality prefix was not served", i, list[i].String())
		}
	}
	quality(o, cfg.seed, list[:n], served[:n])
	return o, nil
}

// ---- certify ----

// certifyOp replays one plan through the ground-truth layers. It returns
// why the certification failed, or "".
func certifyOp(ctx context.Context, pl *plan) string {
	if _, _, err := simulate(pl); err != nil {
		return "simulate: " + err.Error()
	}
	if err := commSets(ctx, pl, false); err != nil {
		return "commsets: " + err.Error()
	}
	if _, err := messagePassing(pl); err != nil {
		return "message passing: " + err.Error()
	}
	if err := execute(pl); err != nil {
		return "execute: " + err.Error()
	}
	if why := selfCheck(pl); why != "" {
		return "self-check: " + why
	}
	return ""
}

// planAll parses and partitions every request, recording failures.
func planAll(ctx context.Context, o *outcome, list []request) []*plan {
	plans := make([]*plan, len(list))
	for i := range list {
		p, err := parseProgram(&list[i])
		if err == nil {
			plans[i], err = partitionPlan(ctx, p, &list[i])
		}
		if err != nil {
			o.fail("plan %s: %v", list[i].String(), err)
		}
	}
	return plans
}

func certify(cfg config) (*outcome, error) {
	ctx := context.Background()
	list := certifyList(cfg.seed, certifyListLen)
	o := &outcome{}
	var (
		plans  []*plan
		setups []time.Duration
	)
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC() // each set-up starts from a collected heap
		t0 := time.Now()
		plans = planAll(ctx, &outcome{}, list)
		setups = append(setups, time.Since(t0))
	}
	pid := os.Getpid()
	if err := resetPeakRSS(pid); err != nil {
		return nil, err
	}
	cpu0, err := cpuTime(pid)
	if err != nil {
		return nil, err
	}
	res := closedLoop(clients, cfg.seconds, 0, func(w, i int) string {
		k := i % len(plans)
		if plans[k] == nil {
			return list[k].String() + ": not planned"
		}
		if why := certifyOp(ctx, plans[k]); why != "" {
			return list[k].String() + ": " + why
		}
		return ""
	})
	cpu1, err := cpuTime(pid)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSS(pid)
	if err != nil {
		return nil, err
	}
	servingMetrics(o, res, cpu1-cpu0, rss, setups)

	var traffic, gaps []float64
	for i, pl := range plans {
		if pl == nil {
			o.fail("plan %s: partition failed", list[i].String())
			continue
		}
		if list[i].name == "random" {
			continue
		}
		if f := factsOf(pl); f.tile {
			traffic = append(traffic, f.predictedTraffic)
		}
		if g, ok := gapOf(o, &list[i], pl); ok {
			gaps = append(gaps, g)
		}
	}
	o.set("plan_traffic_mean", mean(traffic), "words")
	o.set("model_gap_pct", 100*mean(gaps), "%")
	return o, nil
}
