package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run. It replays the workload's seeded requests in process
// with library defaults, recording one span around each call into a
// layer. Where a layer's inner calls cannot be wrapped from outside, the
// inner calls are timed separately on the same input and the layer's
// self time is the difference. All spans are written once, at the end.

// span is one timed call. Spans of one request share req; parent is the
// span that made the call (0 for a request's root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory. A disabled recorder records nothing,
// for the untraced replay that prices tracing.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.on.Store(true)
	return r
}

// active is a started span.
type active struct {
	rec *recorder
	s   span
}

func (r *recorder) begin(name string, req, parent int64) *active {
	if !r.on.Load() {
		return nil
	}
	return &active{rec: r, s: span{Name: name, ID: r.ids.Add(1), Parent: parent, Req: req,
		Start: int64(time.Since(r.epoch))}}
}

// newReq returns a fresh request id (0 when the recorder is off).
func (r *recorder) newReq() int64 {
	if !r.on.Load() {
		return 0
	}
	return r.reqs.Add(1)
}

func (a *active) id() int64 {
	if a == nil {
		return 0
	}
	return a.s.ID
}

func (a *active) end() {
	if a == nil {
		return
	}
	a.s.End = int64(time.Since(a.rec.epoch))
	a.rec.mu.Lock()
	a.rec.spans = append(a.rec.spans, a.s)
	a.rec.mu.Unlock()
}

// timed runs fn inside a span.
func (r *recorder) timed(name string, req, parent int64, fn func()) {
	a := r.begin(name, req, parent)
	fn()
	a.end()
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- span arithmetic ----

// byReq indexes spans per request and name; a name recorded twice in a
// request sums.
func (r *recorder) byReq() map[int64]map[string]time.Duration {
	out := map[int64]map[string]time.Duration{}
	for _, s := range r.spans {
		m := out[s.Req]
		if m == nil {
			m = map[string]time.Duration{}
			out[s.Req] = m
		}
		m[s.Name] += s.dur()
	}
	return out
}

// perReq collects f over the requests that recorded every name in need.
func perReq(reqs map[int64]map[string]time.Duration, need []string, f func(m map[string]time.Duration) time.Duration) []float64 {
	var out []float64
next:
	for _, m := range reqs {
		for _, n := range need {
			if _, ok := m[n]; !ok {
				continue next
			}
		}
		out = append(out, float64(f(m))/float64(time.Microsecond))
	}
	return out
}

// medianOf is the median over requests of the named span, in µs.
func medianOf(reqs map[int64]map[string]time.Duration, name string) float64 {
	return median(perReq(reqs, []string{name}, func(m map[string]time.Duration) time.Duration { return m[name] }))
}

// selfOf is the median over requests of whole minus the sum of parts.
func selfOf(reqs map[int64]map[string]time.Duration, whole string, parts ...string) float64 {
	return median(perReq(reqs, append([]string{whole}, parts...), func(m map[string]time.Duration) time.Duration {
		d := m[whole]
		for _, p := range parts {
			d -= m[p]
		}
		return d
	}))
}

// unattributed is the share of root-span time that no child span covers,
// over all requests. Children of one root run one after another.
func (r *recorder) unattributed() float64 {
	covered := map[int64]time.Duration{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.dur()
		}
	}
	var root, uncovered time.Duration
	for _, s := range r.spans {
		if s.Parent == 0 {
			root += s.dur()
			uncovered += max(0, s.dur()-covered[s.ID])
		}
	}
	if root == 0 {
		return 0
	}
	return float64(uncovered) / float64(root)
}

// allocsPerCall is the mean heap allocations of fn over n calls, with
// nothing else running.
func allocsPerCall(n int, fn func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// ---- the traced replay ----

// unattributedBound fails a traced run whose layer spans leave more than
// this share of a request uncovered.
const unattributedBound = 0.10

// tracedInputs is what a workload hands the traced replay.
type tracedInputs struct {
	serve   []request // distinct requests, filled once (all misses)
	replay  []int     // indices into serve, replayed as hits
	ownFill bool      // the workload's own sequence is the fill (else the replay)
	certify []request // plans replayed through the ground-truth layers
}

const (
	coldTracedPrefix = 400
	hitTracedReplay  = 4000
	allocCalls       = 32
	certifyTracedMax = 12
)

func tracedInputsFor(cfg config) (tracedInputs, error) {
	var in tracedInputs
	switch cfg.workload {
	case "hit_repeat":
		in.serve = hitKeys(cfg.seed, hitKeyCount)
		in.replay = zipfSequence(cfg.seed, len(in.serve), hitTracedReplay)
	case "cold_plan":
		in.serve = coldList(cfg.seed, coldTracedPrefix)
		in.ownFill = true
		for i := range in.serve {
			in.replay = append(in.replay, i)
		}
	case "certify":
		in.serve = certifyList(cfg.seed, certifyListLen)
		in.ownFill = true
		for k := 0; k < 4; k++ {
			for i := range in.serve {
				in.replay = append(in.replay, i)
			}
		}
		in.certify = in.serve
		return in, nil
	default:
		return in, fmt.Errorf("unknown workload %q (want hit_repeat, cold_plan or certify)", cfg.workload)
	}
	// The served workloads certify their small served plans of the
	// certify workload's strategies. The message-passing executor keeps
	// one copy of every array per processor, so P stays at 16.
	for _, r := range in.serve {
		if len(in.certify) < certifyTracedMax && r.Procs <= 16 && r.points <= 4096 &&
			(r.Strategy == "auto" || r.Strategy == "rect" || r.Strategy == "skewed") {
			in.certify = append(in.certify, r)
		}
	}
	return in, nil
}

func traced(cfg config) (*outcome, error) {
	in, err := tracedInputsFor(cfg)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	rec := newRecorder()
	daemonP50, err := daemonLeg(cfg, o, in)
	if err != nil {
		return nil, err
	}
	if err := httpLeg(o, rec, in); err != nil {
		return nil, err
	}
	missLeg(o, rec, in)
	certifyLeg(o, rec, in)

	reqs := rec.byReq()
	us := "us"
	o.set("looppartd.gap_us", daemonP50-medianOf(reqs, "server.roundtrip"), us)
	o.set("server.roundtrip_us", medianOf(reqs, "server.roundtrip"), us)
	o.set("server.transport_us", selfOf(reqs, "server.roundtrip", "server.handler"), us)
	o.set("server.self_us", selfOf(reqs, "server.handler", "service.plan"), us)
	o.set("service.hit_us", medianOf(reqs, "service.plan"), us)
	o.set("service.hit_self_us", selfOf(reqs, "service.plan", "looppart.parse", "plancache.key", "plancache.lookup"), us)
	o.set("service.miss_us", medianOf(reqs, "service.miss"), us)
	o.set("service.miss_self_us", selfOf(reqs, "service.miss",
		"looppart.parse", "plancache.key", "plancache.lookup_miss", "tile.partition", "plancache.put"), us)
	o.set("looppart.parse_us", medianOf(reqs, "looppart.parse"), us)
	o.set("looppart.parse_self_us", selfOf(reqs, "looppart.parse", "loopir.parse", "footprint.analyze"), us)
	o.set("loopir.parse_us", medianOf(reqs, "loopir.parse"), us)
	o.set("footprint.analyze_us", medianOf(reqs, "footprint.analyze"), us)
	o.set("plancache.key_us", medianOf(reqs, "plancache.key"), us)
	o.set("plancache.lookup_us", medianOf(reqs, "plancache.lookup"), us)
	o.set("plancache.hot_get_us", medianOf(reqs, "plancache.hot_get"), us)
	o.set("plancache.put_us", medianOf(reqs, "plancache.put"), us)
	for _, fam := range []string{"rect", "lowerbound", "oblivious", "commfree", "skewed"} {
		o.set("partition."+fam+"_us", medianOf(reqs, "partition."+fam), us)
	}
	skew := perReq(reqs, []string{"partition.skewed"}, func(m map[string]time.Duration) time.Duration { return m["partition.skewed"] })
	o.set("partition.skewed_p99_us", quantile(skew, 0.99), us)
	o.set("tile.assign_us", median(perReq(reqs, []string{"tile.partition"}, func(m map[string]time.Duration) time.Duration {
		d := m["tile.partition"]
		for name, fd := range m {
			if strings.HasPrefix(name, "partition.") {
				d -= fd
			}
		}
		return d
	})), us)
	o.set("commsets.analyze_us", medianOf(reqs, "commsets.analyze"), us)
	o.set("commsets.materialize_us", medianOf(reqs, "commsets.materialize"), us)
	o.set("msgexec.run_us", selfOf(reqs, "msgexec.execute", "commsets.materialize"), us)
	o.set("cachesim.replay_us", medianOf(reqs, "cachesim.replay"), us)
	o.set("exec.run_us", medianOf(reqs, "exec.run"), us)
	o.set("verify.selfcheck_us", medianOf(reqs, "verify.selfcheck"), us)
	share := rec.unattributed()
	o.set("trace.unattributed_share", share, "ratio")
	if share > unattributedBound {
		o.fail("layer spans leave %.3f of traced request time unattributed (bound %.2f)", share, unattributedBound)
	}
	if err := rec.write(filepath.Join(cfg.dir, "spans.jsonl")); err != nil {
		return nil, err
	}
	o.Attempted = len(reqs)
	return o, nil
}

// ---- legs ----

// daemonLeg fills a looppartd with the workload's requests, replays the
// hit sequence through it, and returns the median latency in µs.
func daemonLeg(cfg config, o *outcome, in tracedInputs) (float64, error) {
	d, _, err := startDaemon(cfg.daemon, cfg.dir, "-timeout", coldTimeout)
	if err != nil {
		return 0, err
	}
	defer d.stop()
	cs := newClients(d.url)
	defer closeClients(cs)
	bodies := bodiesOf(in.serve)
	fill(o, cs[0], in.serve, bodies)
	lats := make([]float64, len(in.replay))
	res := closedLoop(clients, time.Hour, len(in.replay), func(w, i int) string {
		t0 := time.Now()
		rep, err := cs[w].plan(bodies[in.replay[i]])
		lats[i] = float64(time.Since(t0)) / float64(time.Microsecond)
		return checkReply(rep, err, "hit")
	})
	for _, f := range res.failed {
		o.fail("daemon replay: %s", f)
	}
	return median(lats), nil
}

// front is a benchmark-owned plan cache and hot tier holding the
// workload's plans, for timing lookups outside the Service.
type front struct {
	lru *lruCache
	hot *hotTier
}

// httpLeg serves the workload through an in-process server.New on a
// loopback listener: the fill, then the hit replay untraced and traced.
func httpLeg(o *outcome, rec *recorder, in tracedInputs) error {
	ctx := context.Background()
	svc := newService()
	h := newHandler(svc)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if req == 0 { // not a traced request: the fill
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		sp := rec.begin("server.handler", req, parent)
		h.ServeHTTP(w, r)
		sp.end()
	}))
	defer ts.Close()
	cs := newClients(ts.URL)
	defer closeClients(cs)
	bodies := bodiesOf(in.serve)

	var hits, total int
	fr := front{lru: newLRU(), hot: newHot(len(in.serve))}
	for k := range in.serve {
		rep, err := cs[0].plan(bodies[k])
		if why := checkReply(rep, err, "miss"); why != "" {
			o.fail("in-process fill %s: %s", in.serve[k].String(), why)
			continue
		}
		total++
		if rep.cache == "hit" {
			hits++
		}
		p, err := parseProgram(&in.serve[k])
		if err != nil {
			return err
		}
		key := canonicalKey(p, &in.serve[k])
		lruPut(fr.lru, key, rep.body)
		lruLookup(fr.lru, key) // a served key is hot
	}
	hotRebuild(fr.hot, fr.lru)

	// A warm-up pass, then the untraced and traced passes compared.
	rec.on.Store(false)
	hitReplay(ctx, rec, cs, svc, fr, in, bodies)
	t0 := time.Now()
	hitReplay(ctx, rec, cs, svc, fr, in, bodies)
	untraced := time.Since(t0)
	rec.on.Store(true)
	t0 = time.Now()
	replayHits, failed := hitReplay(ctx, rec, cs, svc, fr, in, bodies)
	tracedD := time.Since(t0)
	for _, f := range failed {
		o.fail("in-process replay: %s", f)
	}
	o.set("trace.overhead_share", tracedD.Seconds()/untraced.Seconds()-1, "ratio")
	if !in.ownFill {
		hits, total = replayHits, len(in.replay)
	}
	o.set("plancache.hit_share", float64(hits)/float64(max(total, 1)), "ratio")

	// Allocations, one call at a time with nothing else running.
	ts.Close()
	closeClients(cs)
	n := min(allocCalls, len(in.replay))
	reqs := make([]*http.Request, n)
	rws := make([]*httptest.ResponseRecorder, n)
	for i := range reqs {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(bodies[in.replay[i]]))
		rws[i] = httptest.NewRecorder()
	}
	o.set("server.allocs_per_op", allocsPerCall(n, func(i int) { h.ServeHTTP(rws[i], reqs[i]) }), "allocs")
	at := func(i int) *request { return &in.serve[in.replay[i]] }
	o.set("service.hit_allocs", allocsPerCall(n, func(i int) { servicePlan(ctx, svc, at(i)) }), "allocs")
	o.set("loopir.parse_allocs", allocsPerCall(n, func(i int) { parseIR(at(i)) }), "allocs")
	nests := make([]*nest, n)
	for i := range nests {
		nests[i], _ = parseIR(at(i))
	}
	o.set("footprint.analyze_allocs", allocsPerCall(n, func(i int) { analyze(nests[i]) }), "allocs")
	return nil
}

// hitReplay replays the hit sequence, two callers at once. Each request
// goes through the in-process server, then the layers under it are timed
// one by one on the same input. It returns the requests served as hits
// and the failures.
func hitReplay(ctx context.Context, rec *recorder, cs []*client, svc *service, fr front, in tracedInputs, bodies [][]byte) (int, []string) {
	var hits atomic.Int64
	res := closedLoop(clients, time.Hour, len(in.replay), func(w, i int) string {
		k := in.replay[i]
		r := &in.serve[k]
		req := rec.newReq()
		root := rec.begin("request", req, 0)
		rt := rec.begin("server.roundtrip", req, root.id())
		rep, err := cs[w].planTraced(bodies[k], req, rt.id())
		rt.end()
		var status string
		var serr error
		rec.timed("service.plan", req, root.id(), func() { status, _, serr = servicePlan(ctx, svc, r) })
		_, key, ferr := frontEnd(rec, req, root.id(), r)
		rec.timed("plancache.lookup", req, root.id(), func() { lruLookup(fr.lru, key) })
		rec.timed("plancache.hot_get", req, root.id(), func() { hotGet(fr.hot, key) })
		root.end()
		if rep.cache == "hit" {
			hits.Add(1)
		}
		why := checkReply(rep, err, "hit")
		switch {
		case why != "":
		case serr != nil:
			why = "service: " + serr.Error()
		case ferr != nil:
			why = "parse: " + ferr.Error()
		case status != "hit":
			why = "service served " + status
		}
		if why != "" {
			return r.String() + ": " + why
		}
		return ""
	})
	return int(hits.Load()), res.failed
}

// frontEnd times root Parse, the loopir parse and footprint analysis it
// wraps, and the canonical key, on r. It returns the program and key.
func frontEnd(rec *recorder, req, parent int64, r *request) (*program, string, error) {
	var p *program
	var n *nest
	var err error
	rec.timed("looppart.parse", req, parent, func() { p, err = parseProgram(r) })
	if err != nil {
		return nil, "", err
	}
	rec.timed("loopir.parse", req, parent, func() { n, _ = parseIR(r) })
	rec.timed("footprint.analyze", req, parent, func() { analyze(n) })
	var key string
	rec.timed("plancache.key", req, parent, func() { key = canonicalKey(p, r) })
	return p, key, nil
}

// familiesOf lists the family calls a strategy's search makes, in order;
// auto tries comm-free and falls back to rect.
func familiesOf(strategy string) []string {
	if strategy == "auto" {
		return []string{"comm-free", "rect"}
	}
	return []string{strategy}
}

// missLeg plans every request once on a fresh Service, one at a time,
// then times the miss path's layers on the same input: front end, family
// search, tiling, and the cache insert. A second root per request sweeps
// the analytic families it did not request, so every family is priced
// on every workload's nests.
func missLeg(o *outcome, rec *recorder, in tracedInputs) {
	ctx := context.Background()
	svc := newService()
	lru := newLRU()
	var autos, found int
	for k := range in.serve {
		r := &in.serve[k]
		req := rec.newReq()
		root := rec.begin("request", req, 0)
		var status string
		var raw []byte
		var err error
		rec.timed("service.miss", req, root.id(), func() { status, raw, err = servicePlan(ctx, svc, r) })
		p, key, perr := frontEnd(rec, req, root.id(), r)
		rec.timed("plancache.lookup_miss", req, root.id(), func() { lruLookup(lru, key) })
		if perr != nil {
			root.end()
			o.fail("%s: %v", r.String(), perr)
			continue
		}
		for _, fam := range familiesOf(r.Strategy) {
			ok := familySpan(ctx, o, rec, req, root.id(), fam, p, r)
			if fam == "comm-free" {
				autos++
				if ok {
					found++
					break
				}
			}
		}
		rec.timed("tile.partition", req, root.id(), func() { _, perr = partitionPlan(ctx, p, r) })
		rec.timed("plancache.put", req, root.id(), func() { lruPut(lru, key, raw) })
		root.end()
		switch {
		case err != nil:
			o.fail("%s: %v", r.String(), err)
		case status != "miss":
			o.fail("%s: served as %q on a fresh service, want miss", r.String(), status)
		case perr != nil:
			o.fail("%s: partition: %v", r.String(), perr)
		}

		sweep := rec.newReq()
		sroot := rec.begin("sweep", sweep, 0)
		for _, fam := range []string{"rect", "lowerbound", "oblivious", "comm-free"} {
			if r.Strategy != fam && !(r.Strategy == "auto" && (fam == "rect" || fam == "comm-free")) {
				familySpan(ctx, o, rec, sweep, sroot.id(), fam, p, r)
			}
		}
		sroot.end()
	}
	o.set("partition.commfree_found_share", float64(found)/float64(max(autos, 1)), "ratio")
	n := min(allocCalls, len(in.serve))
	fresh := newService()
	o.set("service.miss_allocs", allocsPerCall(n, func(i int) { servicePlan(ctx, fresh, &in.serve[i]) }), "allocs")
}

// familySpan times one family Optimize under the span
// partition.<family> ("comm-free" records as partition.commfree).
func familySpan(ctx context.Context, o *outcome, rec *recorder, req, parent int64, fam string, p *program, r *request) bool {
	var found bool
	var err error
	rec.timed("partition."+strings.ReplaceAll(fam, "-", ""), req, parent, func() {
		found, err = familyOptimize(ctx, fam, p, r.Procs)
	})
	if err != nil {
		o.fail("%s: family %s: %v", r.String(), fam, err)
	}
	return found
}

// certifyLeg plans the certify inputs and replays each plan once through
// the ground-truth layers, two workers at once. ExecuteMessagePassing
// materializes the communication sets inside; that inner call is timed
// separately on the same plan.
func certifyLeg(o *outcome, rec *recorder, in tracedInputs) {
	ctx := context.Background()
	plans := planAll(ctx, o, in.certify)
	var accesses, checked atomic.Int64
	res := closedLoop(clients, time.Hour, len(plans), func(w, i int) string {
		pl := plans[i]
		if pl == nil {
			return in.certify[i].String() + ": not planned"
		}
		req := rec.newReq()
		root := rec.begin("request", req, 0)
		var acc int64
		var errs [5]error
		var values bool
		var why string
		rec.timed("cachesim.replay", req, root.id(), func() { _, acc, errs[0] = simulate(pl) })
		rec.timed("commsets.analyze", req, root.id(), func() { errs[1] = commSets(ctx, pl, false) })
		rec.timed("commsets.materialize", req, root.id(), func() { errs[2] = commSets(ctx, pl, true) })
		rec.timed("msgexec.execute", req, root.id(), func() { values, errs[3] = messagePassing(pl) })
		rec.timed("exec.run", req, root.id(), func() { errs[4] = execute(pl) })
		rec.timed("verify.selfcheck", req, root.id(), func() { why = selfCheck(pl) })
		root.end()
		accesses.Add(acc)
		if values {
			checked.Add(1)
		}
		for _, err := range errs {
			if err != nil {
				return in.certify[i].String() + ": " + err.Error()
			}
		}
		if why != "" {
			return in.certify[i].String() + ": self-check: " + why
		}
		return ""
	})
	for _, f := range res.failed {
		o.fail("certify: %s", f)
	}
	n := float64(max(len(res.lats), 1))
	o.set("cachesim.accesses_per_op", float64(accesses.Load())/n, "accesses")
	o.set("msgexec.values_checked_share", float64(checked.Load())/n, "ratio")
}
