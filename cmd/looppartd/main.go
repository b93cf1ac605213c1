// Command looppartd is the partition-planning daemon: a long-running HTTP
// service that answers plan requests through a canonicalized plan cache
// with singleflight deduplication and admission control, so a fleet of
// consumers pays one search per distinct (nest, procs, strategy) instead
// of one per invocation.
//
// Serve mode (default):
//
//	looppartd -addr 127.0.0.1:8077
//
//	-addr ADDR         listen address (default 127.0.0.1:8077)
//	-portfile FILE     write the bound address to FILE once listening
//	-max-inflight N    planning requests served concurrently before
//	                   shedding with 429 (default 4×GOMAXPROCS)
//	-timeout D         per-request planning deadline (default 10s)
//	-max-body N        request body limit in bytes (default 1 MiB)
//	-cache-mb N        plan-cache budget in MiB (default 64)
//	-store DIR         persistent tuned-plan store: warm-starts the cache
//	                   at boot and absorbs every served plan
//	-calibrate MODE    cost constants for autotuning: model (paper
//	                   defaults) or sim (fit by microbenchmark)
//	-autotune K        serve measured tournament winners over the top-K
//	                   analytic candidates (0 = pure analytic planning)
//	-selfcheck         verify every served plan before returning it
//	                   (equivalent to ?verify=1 on every request)
//	-strategies LIST   comma-separated strategy names this daemon will
//	                   plan (e.g. rect,skew,lowerbound; "skew" is accepted
//	                   for "skewed"); requests naming any other strategy
//	                   are rejected. Empty (default) enables all
//	-peers LIST        cluster mode: comma-separated replica base URLs
//	                   (host:port or http://host:port), or @FILE to read
//	                   a peer's portfile (polled until written, so a
//	                   fleet on ephemeral ports can boot in any order).
//	                   Keys are consistent-hashed across the fleet; a
//	                   local miss asks the key-owner replica's
//	                   /v1/peer/plan before searching itself
//	-advertise URL     this replica's member name in the ring (default:
//	                   the bound address); replicas must name each other
//	                   consistently for their rings to agree
//	-ring-vnodes N     virtual nodes per ring member (default 64)
//	-peer-timeout D    peer-fill deadline including the hedge (default 5s)
//	-peer-hedge D      duplicate a slow peer fill after D (default 250ms;
//	                   negative disables hedging)
//	-hot-keys N        pin the N hottest plans in a lock-free tier above
//	                   the LRU (0 = off); served with X-Plancache: hot
//	-quota RATE[:BURST] per-tenant token bucket on the planning routes:
//	                   RATE requests/second with bursts of BURST (default
//	                   ceil(RATE)); tenants are keyed by the X-Tenant
//	                   header and shed with 429 + Retry-After
//	-slo SPEC          per-route latency objective ROUTE=LATENCY[@TARGET]
//	                   (e.g. /v1/plan=250ms@0.99; repeatable); breaches
//	                   surface as /metrics burn-rate gauges + exemplars
//	-flightrec N       flight-recorder ring size: the last N request
//	                   records behind GET /debug/flightrec (default 256)
//	-flightrec-dir DIR snapshot 5xx / SLO-breach records into DIR
//	-reqlog DEST       structured JSON request log (one line per request,
//	                   keyed by trace ID): stderr (default), stdout, a
//	                   file path, or empty to disable
//	-event-cap N       retained decision events (default 16384)
//	-trace FILE        on shutdown, write the flight recorder's request
//	                   span trees as a Chrome trace
//	-metrics FILE      write a metrics dump on shutdown
//	-pprof ADDR        serve net/http/pprof on ADDR
//
// The daemon exits cleanly on SIGINT/SIGTERM, draining in-flight plans.
// Live metrics are always available at GET /metrics: the server's and
// the components' counters, plus a "<span>.latency" histogram per span
// name of the request trees (server.plan, parse, cache.lookup, search,
// ...).
//
// Load-generator mode, for driving the serving benchmarks against a
// running daemon:
//
//	looppartd -loadgen -url http://127.0.0.1:8077 -n 1000 -c 8 example8
//
//	-n N       total requests (default 200)
//	-c N       concurrent workers (default 4)
//	-batch K   send batches of K items instead of single requests
//	-procs P, -strategy S, -param N=V   the planning request
//
// The loadgen reports throughput, cache-hit rate, latency percentiles
// (p50/p95/p99), and the trace IDs of the slowest requests (join them
// against the daemon's /debug/flightrec); it exits non-zero if any
// request failed.
//
// Cluster load-generator mode boots its own fleet of N in-process
// replicas wired into one consistent-hash ring and drives K distinct
// keys across all of them:
//
//	looppartd -loadgen -cluster 3 -keys 8 -n 3000 -c 16 example8
//
// It reports aggregate throughput, per-replica hit rates, the
// fleet-wide search count (which should approach K — each distinct key
// searched once, wherever it landed), and fails if any key's response
// body differs between replicas.
//
// The nest argument is a built-in example name, a file, or - for stdin.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"looppart"
	"looppart/internal/autotune"
	"looppart/internal/cliflag"
	"looppart/internal/cluster"
	"looppart/internal/obs"
	"looppart/internal/paperex"
	"looppart/internal/server"
	"looppart/internal/telemetry"
)

type paramFlags map[string]int64

func (p paramFlags) String() string { return fmt.Sprint(map[string]int64(p)) }

func (p paramFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("expected NAME=VALUE, got %q", s)
	}
	v, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return fmt.Errorf("bad value in %q: %v", s, err)
	}
	p[name] = v
	return nil
}

// sloFlags accumulates repeated -slo objectives.
type sloFlags []obs.Objective

func (f *sloFlags) String() string { return fmt.Sprint([]obs.Objective(*f)) }

func (f *sloFlags) Set(s string) error {
	o, err := obs.ParseObjective(s)
	if err != nil {
		return err
	}
	*f = append(*f, o)
	return nil
}

// openRequestLog resolves the -reqlog destination.
func openRequestLog(dest string) (io.Writer, io.Closer, error) {
	switch dest {
	case "":
		return nil, nil, nil
	case "stderr":
		return os.Stderr, nil, nil
	case "stdout":
		return os.Stdout, nil, nil
	default:
		f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, err
		}
		return f, f, nil
	}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "looppartd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("looppartd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8077", "listen address")
	portfile := fs.String("portfile", "", "write the bound address to this file once listening")
	maxInflight := fs.Int("max-inflight", 0, "concurrent planning requests before shedding (0 = 4×GOMAXPROCS)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request planning deadline")
	maxBody := fs.Int64("max-body", 1<<20, "request body limit in bytes")
	cacheMB := fs.Int64("cache-mb", 64, "plan-cache budget in MiB")
	storeDir := fs.String("store", "", "persistent tuned-plan store directory (empty = memory only)")
	calibrate := fs.String("calibrate", "model", "cost constants: model (paper defaults) or sim (fit by microbenchmark)")
	autotuneK := fs.Int("autotune", 0, "serve tournament winners over the top-K analytic candidates (0 = analytic)")
	selfCheck := fs.Bool("selfcheck", false, "verify every served plan before returning it (500 + report on failure)")
	commSets := fs.Bool("commsets", false, "attach the exact communication-set summary to every served plan")
	strategiesList := fs.String("strategies", "", "comma-separated strategy names to enable (empty = all)")
	peers := fs.String("peers", "", "cluster members: comma-separated base URLs or @portfile specs")
	advertise := fs.String("advertise", "", "this replica's member name in the ring (default: the bound address)")
	ringVNodes := fs.Int("ring-vnodes", cluster.DefaultVNodes, "virtual nodes per ring member")
	peerTimeout := fs.Duration("peer-timeout", cluster.DefaultFillTimeout, "peer-fill deadline including the hedge")
	peerHedge := fs.Duration("peer-hedge", cluster.DefaultHedgeDelay, "duplicate a slow peer fill after this delay (negative = no hedging)")
	hotKeys := fs.Int("hot-keys", 0, "pin the N hottest plans in a lock-free tier above the LRU (0 = off)")
	quotaSpec := fs.String("quota", "", "per-tenant rate limit RATE[:BURST] requests/second (empty = off)")
	eventCap := fs.Int("event-cap", 16384, "retained decision events (0 = unbounded)")
	var sloSpecs sloFlags
	fs.Var(&sloSpecs, "slo", "latency objective ROUTE=LATENCY[@TARGET], e.g. /v1/plan=250ms@0.99 (repeatable)")
	flightrecN := fs.Int("flightrec", obs.DefaultRecorderSize, "flight-recorder ring size (last N requests)")
	flightrecDir := fs.String("flightrec-dir", "", "auto-snapshot 5xx / SLO-breach flight records into this directory")
	reqlog := fs.String("reqlog", "stderr", "request log destination: stderr, stdout, a file path, or empty to disable")
	loadgen := fs.Bool("loadgen", false, "drive load at a running daemon instead of serving")
	url := fs.String("url", "", "loadgen: base URL of the daemon")
	n := fs.Int("n", 200, "loadgen: total requests")
	c := fs.Int("c", 4, "loadgen: concurrent workers")
	batch := fs.Int("batch", 0, "loadgen: items per batch request (0 = single requests)")
	clusterN := fs.Int("cluster", 0, "loadgen: boot this many in-process replicas and drive them as a fleet")
	keysN := fs.Int("keys", 4, "loadgen: distinct plan keys to spread across the fleet (cluster mode)")
	procs := fs.Int("procs", 16, "loadgen: processors in the plan request")
	strategy := fs.String("strategy", "rect", "loadgen: strategy in the plan request")
	params := paramFlags{"N": 64, "T": 4}
	fs.Var(params, "param", "loadgen: loop-bound parameter NAME=VALUE (repeatable)")
	var obsFlags cliflag.Obs
	obsFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *loadgen {
		cfg := loadgenConfig{
			url: *url, n: *n, c: *c, batch: *batch,
			procs: *procs, strategy: *strategy, params: params,
			nestArg: fs.Args(),
			cluster: *clusterN, keys: *keysN, hotKeys: *hotKeys,
		}
		if *clusterN > 0 {
			return runClusterLoadgen(ctx, cfg, out)
		}
		return runLoadgen(ctx, cfg, out)
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve mode takes no arguments (use -loadgen to drive load)")
	}

	// No process trace: every request carries its own, and -trace writes
	// the flight recorder's request trees.
	reg, err := obsFlags.Setup("")
	if err != nil {
		return err
	}
	if reg == nil {
		// The daemon always runs with telemetry on: /metrics serves it.
		reg = telemetry.New()
	}
	reg.SetEventCap(*eventCap)
	prev := telemetry.SetActive(reg)
	defer telemetry.SetActive(prev)

	// Listen (and write the portfile) before anything slow — calibration,
	// store warm-load, peer resolution: a fleet wired by @portfile specs
	// needs every replica's portfile on disk before any of them can
	// resolve its peers, whatever order they boot in.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	bound := ln.Addr().String()
	if *portfile != "" {
		if err := os.WriteFile(*portfile, []byte(bound), 0o644); err != nil {
			return err
		}
	}

	var fp autotune.Fingerprint
	switch *calibrate {
	case "model", "":
		fp = autotune.ModelFingerprint()
	case "sim":
		if fp, err = autotune.Calibrate(autotune.CalibrateOptions{}); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -calibrate mode %q (want model or sim)", *calibrate)
	}
	svcOpts := looppart.ServiceOptions{
		CacheBytes:  *cacheMB << 20,
		AutotuneK:   *autotuneK,
		Fingerprint: fp,
		CommSets:    *commSets,
	}
	if *strategiesList != "" {
		if svcOpts.Strategies, err = parseStrategies(*strategiesList); err != nil {
			return err
		}
	}
	if *storeDir != "" {
		if svcOpts.Store, err = autotune.OpenStore(*storeDir, fp); err != nil {
			return err
		}
	}
	svcOpts.HotKeys = *hotKeys
	var clusterClient *cluster.Client
	if *peers != "" {
		self := cluster.MemberName(*advertise)
		if self == "" {
			self = cluster.MemberName(bound)
		}
		members, err := resolvePeers(ctx, *peers)
		if err != nil {
			return err
		}
		// Self joins the ring too; resolvePeers may also have returned it
		// (scripts pass every replica the same member list) — the ring
		// dedups.
		members = append(members, self)
		clusterClient = cluster.New(cluster.Options{
			Self:        self,
			Members:     members,
			VNodes:      *ringVNodes,
			FillTimeout: *peerTimeout,
			HedgeDelay:  *peerHedge,
		})
		svcOpts.PeerFill = clusterClient
	}
	quotas, err := parseQuota(*quotaSpec)
	if err != nil {
		return err
	}
	svc := looppart.NewService(svcOpts)
	if svcOpts.Store != nil {
		st := svc.Stats()
		fmt.Fprintf(out, "looppartd: store %s (%s): %d plans warm-loaded\n",
			*storeDir, fp.ID(), st.WarmLoaded)
	}
	if *autotuneK > 0 {
		fmt.Fprintf(out, "looppartd: autotune on: top-%d tournaments under %s\n", *autotuneK, fp.ID())
	}
	if *selfCheck {
		fmt.Fprintln(out, "looppartd: self-check on: every served plan is re-verified")
	}
	if clusterClient != nil {
		cst := clusterClient.Stats()
		fmt.Fprintf(out, "looppartd: cluster of %d members (%d vnodes each), self %s owns %.1f%% of the ring\n",
			cst.Members, cst.VNodes, cst.Self, 100*cst.SelfFraction)
	}
	if *hotKeys > 0 {
		fmt.Fprintf(out, "looppartd: hot tier pins the top %d plans\n", *hotKeys)
	}
	if len(svcOpts.Strategies) > 0 {
		fmt.Fprintf(out, "looppartd: strategies enabled: %s\n", strings.Join(svcOpts.Strategies, ", "))
	}
	if quotas != nil {
		qs := quotas.Stats()
		fmt.Fprintf(out, "looppartd: per-tenant quota %.4g req/s (burst %.4g)\n", qs.Rate, qs.Burst)
	}
	recorder := obs.NewRecorder(*flightrecN)
	if *flightrecDir != "" {
		if err := recorder.SnapshotTo(*flightrecDir); err != nil {
			return err
		}
		fmt.Fprintf(out, "looppartd: flight-record snapshots to %s\n", *flightrecDir)
	}
	slo := obs.NewSLOTracker(sloSpecs...)
	for _, o := range sloSpecs {
		fmt.Fprintf(out, "looppartd: SLO %s: %.4g%% under %v\n", o.Route, 100*o.Target, o.Latency)
	}
	logw, logc, err := openRequestLog(*reqlog)
	if err != nil {
		return err
	}
	if logc != nil {
		defer logc.Close()
	}
	var logger *slog.Logger
	if logw != nil {
		logger = obs.NewLogger(logw)
	}
	srv := server.New(server.Config{
		Service:      svc,
		Registry:     reg,
		MaxInflight:  *maxInflight,
		PlanTimeout:  *timeout,
		MaxBodyBytes: *maxBody,
		SelfCheck:    *selfCheck,
		Logger:       logger,
		Recorder:     recorder,
		SLO:          slo,
		Cluster:      clusterClient,
		Quotas:       quotas,
	})
	fmt.Fprintf(out, "looppartd: serving on http://%s\n", bound)

	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "looppartd: draining")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		return err
	}
	st := svc.Stats()
	if clusterClient != nil {
		fmt.Fprintf(out, "looppartd: served %d requests (%d searches, %d cache hits, %d peer fills), bye\n",
			st.Requests, st.Searches, st.CacheHits, st.PeerHits)
	} else {
		fmt.Fprintf(out, "looppartd: served %d requests (%d searches, %d cache hits), bye\n",
			st.Requests, st.Searches, st.CacheHits)
	}
	return obsFlags.Flush(reg, recorder.Records()...)
}

// resolvePeers expands the -peers list into member names. A spec is a
// replica base URL, or @FILE naming a portfile another replica writes
// once listening — the boot-order-free way to wire a fleet on ephemeral
// ports: every replica lists every portfile (its own included; the ring
// dedups) and polls until they all appear.
func resolvePeers(ctx context.Context, specs string) ([]string, error) {
	var members []string
	deadline := time.Now().Add(10 * time.Second)
	for _, spec := range strings.Split(specs, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		if !strings.HasPrefix(spec, "@") {
			members = append(members, cluster.MemberName(spec))
			continue
		}
		file := strings.TrimPrefix(spec, "@")
		for {
			data, err := os.ReadFile(file)
			if err == nil && len(bytes.TrimSpace(data)) > 0 {
				members = append(members, cluster.MemberName(string(bytes.TrimSpace(data))))
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("peer portfile %s not written within 10s", file)
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(25 * time.Millisecond):
			}
		}
	}
	return members, nil
}

// parseStrategies expands the -strategies list into validated strategy
// names. "skew" is accepted as the common short spelling of "skewed";
// unknown names fail fast at boot rather than 4xx-ing every request.
func parseStrategies(list string) ([]string, error) {
	var names []string
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name == "skew" {
			name = "skewed"
		}
		if _, ok := looppart.ParseStrategy(name); !ok {
			return nil, fmt.Errorf("unknown strategy %q in -strategies", name)
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("-strategies lists no strategy names")
	}
	return names, nil
}

// parseQuota parses the -quota spec RATE[:BURST] into a limiter (nil
// when the spec is empty — quotas off).
func parseQuota(spec string) (*cluster.Quotas, error) {
	if spec == "" {
		return nil, nil
	}
	rateS, burstS, _ := strings.Cut(spec, ":")
	rate, err := strconv.ParseFloat(rateS, 64)
	if err != nil || rate <= 0 {
		return nil, fmt.Errorf("bad -quota rate %q (want RATE[:BURST], RATE > 0)", spec)
	}
	var burst float64
	if burstS != "" {
		if burst, err = strconv.ParseFloat(burstS, 64); err != nil || burst < 1 {
			return nil, fmt.Errorf("bad -quota burst %q (want >= 1)", spec)
		}
	}
	return cluster.NewQuotas(rate, burst), nil
}

// loadgenConfig parameterizes one load-generation run.
type loadgenConfig struct {
	url      string
	n, c     int
	batch    int
	procs    int
	strategy string
	params   map[string]int64
	nestArg  []string
	// cluster mode: boot this many in-process replicas and spread keys
	// distinct keys across them (runClusterLoadgen).
	cluster int
	keys    int
	hotKeys int
}

// loadSource resolves the loadgen nest argument: a built-in example name,
// a file path, or - for stdin (default example8).
func loadSource(args []string) (string, error) {
	if len(args) == 0 {
		return paperex.Example8, nil
	}
	if len(args) != 1 {
		return "", fmt.Errorf("loadgen takes one nest argument, got %d", len(args))
	}
	arg := args[0]
	if arg == "-" {
		data, err := io.ReadAll(os.Stdin)
		return string(data), err
	}
	if src, ok := paperex.All[strings.ToLower(arg)]; ok {
		return src, nil
	}
	data, err := os.ReadFile(arg)
	return string(data), err
}

func runLoadgen(ctx context.Context, cfg loadgenConfig, out io.Writer) error {
	if cfg.url == "" {
		return fmt.Errorf("loadgen requires -url (the daemon's base address)")
	}
	if cfg.n < 1 || cfg.c < 1 {
		return fmt.Errorf("loadgen requires -n >= 1 and -c >= 1")
	}
	src, err := loadSource(cfg.nestArg)
	if err != nil {
		return err
	}
	req := looppart.PlanRequest{Source: src, Params: cfg.params, Procs: cfg.procs, Strategy: cfg.strategy}
	single, err := json.Marshal(req)
	if err != nil {
		return err
	}
	endpoint := cfg.url + "/v1/plan"
	body := single
	if cfg.batch > 0 {
		reqs := make([]looppart.PlanRequest, cfg.batch)
		for i := range reqs {
			reqs[i] = req
		}
		wrapped := struct {
			Requests []looppart.PlanRequest `json:"requests"`
		}{reqs}
		if body, err = json.Marshal(wrapped); err != nil {
			return err
		}
		endpoint = cfg.url + "/v1/plan/batch"
	}

	var (
		next     atomic.Int64
		okCount  atomic.Int64
		shed     atomic.Int64
		failed   atomic.Int64
		hits     atomic.Int64
		totalNs  atomic.Int64
		firstErr atomic.Pointer[string]
		client   = &http.Client{Timeout: 60 * time.Second}
	)
	recordErr := func(msg string) {
		failed.Add(1)
		firstErr.CompareAndSwap(nil, &msg)
	}
	// Per-request samples for the percentile report and the trace IDs of
	// the slowest requests (the daemon echoes X-Trace-Id, so a slow
	// outlier here maps directly to /debug/flightrec?trace=<id>).
	type sample struct {
		lat   time.Duration
		trace string
	}
	var (
		sampleMu sync.Mutex
		samples  []sample
	)

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(cfg.c)
	for w := 0; w < cfg.c; w++ {
		go func() {
			defer wg.Done()
			for {
				if int(next.Add(1)) > cfg.n || ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				resp, err := client.Post(endpoint, "application/json", bytes.NewReader(body))
				if err != nil {
					recordErr(err.Error())
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				d := time.Since(t0)
				totalNs.Add(d.Nanoseconds())
				sampleMu.Lock()
				samples = append(samples, sample{lat: d, trace: resp.Header.Get("X-Trace-Id")})
				sampleMu.Unlock()
				switch {
				case resp.StatusCode == http.StatusOK:
					okCount.Add(1)
					if st := resp.Header.Get("X-Plancache"); st == "hit" || st == "dedup" || st == "hot" || st == "peer" {
						hits.Add(1)
					}
				case resp.StatusCode == http.StatusTooManyRequests:
					shed.Add(1)
				default:
					recordErr(fmt.Sprintf("status %d", resp.StatusCode))
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	done := okCount.Load() + shed.Load() + failed.Load()
	kind := "requests"
	if cfg.batch > 0 {
		kind = fmt.Sprintf("batches of %d", cfg.batch)
	}
	nonOK := shed.Load() + failed.Load()
	fmt.Fprintf(out, "loadgen: %d %s in %v (%.0f/s), %d ok, %d non-2xx (%d shed, %d failed)\n",
		done, kind, wall.Round(time.Millisecond), float64(done)/wall.Seconds(),
		okCount.Load(), nonOK, shed.Load(), failed.Load())
	if len(samples) > 0 {
		lats := make([]time.Duration, len(samples))
		var maxLat time.Duration
		for i, sm := range samples {
			lats[i] = sm.lat
			if sm.lat > maxLat {
				maxLat = sm.lat
			}
		}
		ps := obs.Percentiles(lats, 50, 95, 99)
		fmt.Fprintf(out, "loadgen: latency mean %v p50 %v p95 %v p99 %v max %v\n",
			(time.Duration(totalNs.Load()) / time.Duration(len(samples))).Round(time.Microsecond),
			ps[0].Round(time.Microsecond), ps[1].Round(time.Microsecond),
			ps[2].Round(time.Microsecond), maxLat.Round(time.Microsecond))
		if ok := okCount.Load(); ok > 0 {
			fmt.Fprintf(out, "loadgen: cache hits %d/%d (%.0f%%)\n",
				hits.Load(), ok, 100*float64(hits.Load())/float64(ok))
		}
		// The slowest requests by trace ID: paste one into
		// GET /debug/flightrec?trace=<id> for the full span tree.
		sort.Slice(samples, func(i, j int) bool { return samples[i].lat > samples[j].lat })
		top := samples
		if len(top) > slowestTraces {
			top = top[:slowestTraces]
		}
		for _, sm := range top {
			if sm.trace != "" {
				fmt.Fprintf(out, "loadgen: slow trace %s %v\n", sm.trace, sm.lat.Round(time.Microsecond))
			}
		}
	}
	if failed.Load() > 0 {
		msg := "see statuses above"
		if m := firstErr.Load(); m != nil {
			msg = *m
		}
		return fmt.Errorf("loadgen: %d requests failed (first: %s)", failed.Load(), msg)
	}
	if errors.Is(ctx.Err(), context.Canceled) {
		return nil
	}
	return ctx.Err()
}

// slowestTraces is how many slowest-request trace IDs the loadgen prints.
const slowestTraces = 5
