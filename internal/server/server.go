// Package server exposes the partition-planning service over a stdlib
// net/http JSON API — the serving layer of cmd/looppartd.
//
// Endpoints:
//
//	POST /v1/plan        {source, params, procs, strategy} → PlanResult
//	                     (?explain=1 adds the decision trace; ?verify=1
//	                     re-validates the served plan and wraps it with
//	                     the self-check report, 500 on failure;
//	                     ?commsets=1 wraps it with the exact per-epoch
//	                     communication-set summary)
//	POST /v1/plan/batch  {requests: [...]} → {responses: [...]}
//	POST /v1/autotune    {source, params, procs, strategy} → tournament
//	                     result (predicted vs measured per candidate)
//	POST /v1/peer/plan   peer-fill endpoint (internal/cluster): same body
//	                     as /v1/plan, answered from this replica's caches
//	                     and search alone — never another peer hop — so a
//	                     fill is structurally one hop; X-Peer-Hop above
//	                     cluster.MaxHops is rejected as a loop guard
//	GET  /healthz        liveness probe
//	GET  /metrics        Prometheus text exposition of the registry, plus
//	                     per-route SLO gauges and # EXEMPLAR trace-ID lines
//	GET  /debug/flightrec  flight-recorder dump (filter by trace, key,
//	                     status, class, min_latency, breach; limit with n)
//	GET  /debug/cache    plan-cache occupancy, top-K hot keys, and live
//	                     singleflight flights with waiter counts
//	GET  /debug/slo      per-route objectives, percentiles, burn rates
//
// The response body of a non-explain /v1/plan is exactly the cached
// PlanResult JSON, so a hit is byte-identical to the miss that filled it
// — and, with clustering, byte-identical across replicas; how the
// request was served travels out of band in the X-Plancache header
// (miss | hit | hot | dedup | peer | bypass).
//
// Every planning route runs under the request-tracing middleware
// (obs.go): the request's trace ID — accepted from X-Trace-Id or
// generated, always echoed back — keys a span tree of the pipeline
// stages, the flight-recorder record, the structured request log line,
// and the SLO bookkeeping. Each span ends into the registry as a
// "<span>.latency" histogram (the route's root span as
// server.plan.latency and its siblings), and the registry reads the
// service's, cluster client's, and quota limiter's own counters when
// /metrics is scraped.
//
// Admission control: a bounded in-flight semaphore sheds planning load
// with 429 + Retry-After once MaxInflight requests are being served;
// with Quotas configured, per-tenant token buckets (keyed by the
// X-Tenant header) shed one tenant's flood the same way before it
// reaches admission, so other tenants keep planning. Request bodies are
// size-limited; each request's planning work runs under a deadline.
// Liveness and metrics bypass admission so the service stays observable
// under overload. Graceful shutdown is the caller's http.Server.Shutdown,
// which drains in-flight handlers.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"looppart"
	"looppart/internal/cluster"
	"looppart/internal/commsets"
	"looppart/internal/obs"
	"looppart/internal/telemetry"
	"looppart/internal/verify"
)

// Config parameterizes a Server.
type Config struct {
	// Service answers the planning requests (required).
	Service *looppart.Service
	// Registry receives the server's own counters and gauges and its
	// requests' span latencies, reads the Service's (and Cluster's and
	// Quotas') counters at snapshot time, and backs /metrics. May be nil
	// (endpoints still work; /metrics is empty).
	Registry *telemetry.Registry
	// MaxInflight bounds concurrently served planning requests
	// (default 4×GOMAXPROCS). Excess requests are shed with 429.
	MaxInflight int
	// PlanTimeout bounds one request's planning work (default 10s). A
	// request that exceeds it gets 503; the underlying search still
	// completes and fills the cache.
	PlanTimeout time.Duration
	// MaxBodyBytes bounds a request body (default 1 MiB).
	MaxBodyBytes int64
	// SelfCheck verifies every served plan as if ?verify=1 were set on the
	// request (cmd/looppartd -selfcheck): the plan is reconstructed from
	// its serialized form and re-validated against the iteration space
	// before it is returned. A plan that fails verification is answered
	// with 500 and the failing report instead of the plan.
	SelfCheck bool

	// Logger receives one structured JSON line per completed planning
	// request, keyed by trace ID (obs.NewLogger). Nil disables request
	// logging.
	Logger *slog.Logger
	// Recorder is the flight recorder behind /debug/flightrec. Nil gets a
	// default-sized ring, so the endpoint always works.
	Recorder *obs.Recorder
	// SLO matches request latencies against per-route objectives and
	// feeds the /metrics burn-rate gauges. May be nil (no SLO tracking).
	SLO *obs.SLOTracker

	// Cluster, when non-nil, is this replica's peer-fill client; its ring
	// ownership, fill counters, and breaker states are read into
	// /metrics. (The client itself is wired into the Service as its
	// PeerFiller by the caller — the server only observes it.)
	Cluster *cluster.Client
	// Quotas, when non-nil, rate-limits the planning routes per tenant
	// (X-Tenant header; empty shares cluster.AnonTenant). Exhausted
	// tenants are shed with 429 + Retry-After before admission.
	Quotas *cluster.Quotas
}

// Server routes the planning API. Install via Handler().
type Server struct {
	cfg Config
	sem chan struct{}
	mux *http.ServeMux

	// explainMu serializes explain requests (writers) against all other
	// planning (readers): Service.Explain swaps in a private telemetry
	// registry to collect a clean decision trace, so nothing else may
	// plan while one runs.
	explainMu sync.RWMutex

	// testPlanGate, when set, is called at the start of every planning
	// request after admission; tests use it to hold requests in flight
	// deterministically.
	testPlanGate func()
}

// New returns a Server for cfg.
func New(cfg Config) *Server {
	if cfg.Service == nil {
		panic("server: Config.Service is required")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.PlanTimeout <= 0 {
		cfg.PlanTimeout = 10 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.Recorder == nil {
		cfg.Recorder = obs.NewRecorder(0)
	}
	s := &Server{
		cfg: cfg,
		sem: make(chan struct{}, cfg.MaxInflight),
		mux: http.NewServeMux(),
	}
	if reg := cfg.Registry; reg != nil {
		reg.Collect(func(snap telemetry.Snapshot) { snap.Gauges["server.inflight"] = float64(len(s.sem)) })
		reg.Collect(cfg.Service.Collect)
		if cfg.Cluster != nil {
			reg.Collect(cfg.Cluster.Collect)
		}
		if cfg.Quotas != nil {
			reg.Collect(cfg.Quotas.Collect)
		}
	}
	s.mux.HandleFunc("/v1/plan", s.traced("/v1/plan", s.handlePlan))
	s.mux.HandleFunc("/v1/plan/batch", s.traced("/v1/plan/batch", s.handleBatch))
	s.mux.HandleFunc("/v1/autotune", s.traced("/v1/autotune", s.handleAutotune))
	s.mux.HandleFunc(cluster.PeerPlanPath, s.traced(cluster.PeerPlanPath, s.handlePeerPlan))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/flightrec", s.handleFlightrec)
	s.mux.HandleFunc("/debug/cache", s.handleDebugCache)
	s.mux.HandleFunc("/debug/slo", s.handleDebugSLO)
	return s
}

// Handler returns the HTTP handler for the API.
func (s *Server) Handler() http.Handler { return s.mux }

// admit reserves an in-flight slot, or sheds the request with 429.
func (s *Server) admit(w http.ResponseWriter) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
		s.cfg.Registry.Counter("server.shed").Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "server at capacity, retry shortly")
		return false
	}
}

func (s *Server) release() { <-s.sem }

// allowTenant spends one token from the requesting tenant's quota
// bucket, or sheds the request with 429 + Retry-After. A nil Quotas
// admits everything. Peer fills (/v1/peer/plan) are replica-to-replica
// traffic and are not metered here — the originating replica already
// charged its own caller.
func (s *Server) allowTenant(w http.ResponseWriter, r *http.Request) bool {
	tenant := r.Header.Get("X-Tenant")
	ok, wait := s.cfg.Quotas.Allow(tenant)
	if ok {
		return true
	}
	s.cfg.Registry.Counter("server.quota_rejected").Add(1)
	if tenant == "" {
		tenant = cluster.AnonTenant
	}
	obs.TraceFrom(r.Context()).Root().SetAttr("quota_tenant", tenant)
	// Ceiling with a floor of 1: Retry-After is whole seconds, and a
	// sub-second wait must never round to 0 (an immediate retry into the
	// same empty bucket), while an exact multiple must not gain a spare
	// second.
	secs := int((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, http.StatusTooManyRequests,
		fmt.Sprintf("tenant %q over quota, retry in %ds", tenant, secs))
	return false
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: msg})
}

// decode reads a size-limited JSON body into v. It reports 413 for
// oversized bodies and 400 for malformed ones.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		} else {
			writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		}
		return false
	}
	return true
}

// plan runs one planning request under the explain read-lock and the
// request deadline.
func (s *Server) plan(ctx context.Context, req looppart.PlanRequest) (*looppart.PlanResponse, error) {
	if s.testPlanGate != nil {
		s.testPlanGate()
	}
	s.explainMu.RLock()
	defer s.explainMu.RUnlock()
	ctx, cancel := context.WithTimeout(ctx, s.cfg.PlanTimeout)
	defer cancel()
	return s.cfg.Service.Plan(ctx, req)
}

// planStatus maps a planning error to an HTTP status: deadline/cancel →
// 503 (the search outlived this request's budget), anything else → 422
// (the request was well-formed JSON but not plannable).
func planStatus(err error) int {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusServiceUnavailable
	}
	return http.StatusUnprocessableEntity
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	reg := s.cfg.Registry
	reg.Counter("server.requests").Add(1)
	if !s.allowTenant(w, r) {
		return
	}
	if !s.admit(w) {
		return
	}
	defer s.release()

	var req looppart.PlanRequest
	if !s.decode(w, r, &req) {
		reg.Counter("server.errors").Add(1)
		return
	}

	if r.URL.Query().Get("explain") == "1" {
		s.handleExplain(w, r, req)
		return
	}

	resp, err := s.plan(r.Context(), req)
	if err != nil {
		reg.Counter("server.errors").Add(1)
		s.fail(w, r, planStatus(err), err.Error())
		return
	}
	obs.TraceFrom(r.Context()).Root().SetAttr("cache", resp.Status)

	if s.cfg.SelfCheck || r.URL.Query().Get("verify") == "1" {
		s.handleVerified(w, r, req, resp)
		return
	}
	if r.URL.Query().Get("commsets") == "1" {
		s.handleCommSets(w, r, req, resp)
		return
	}

	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Plancache", resp.Status)
	w.Write(resp.Raw)
}

// commResponse wraps a plan result with its communication-set summary.
// Result is the canonical plan bytes, unchanged by the analysis. For
// plans resolved in the rectangular-grid family the envelope also carries
// the Dinh–Demmel communication lower bound and the plan's optimality
// score against it (100 = comm-optimal); both are omitted when the bound
// makes no claim about the served plan's family.
type commResponse struct {
	Result            json.RawMessage   `json:"result"`
	Comm              *commsets.Summary `json:"comm"`
	CommLowerBound    *int64            `json:"comm_lower_bound,omitempty"`
	CommOptimalityPct *float64          `json:"comm_optimality_pct,omitempty"`
}

// handleCommSets answers ?commsets=1: the served plan plus its exact
// per-epoch communication certificate, computed on demand from the
// serialized result (or echoed from the attached summary when the
// service runs with CommSets on).
func (s *Server) handleCommSets(w http.ResponseWriter, r *http.Request, req looppart.PlanRequest, resp *looppart.PlanResponse) {
	reg := s.cfg.Registry
	res, err := resp.Decode()
	if err != nil {
		reg.Counter("server.errors").Add(1)
		s.fail(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	sum, err := s.cfg.Service.CommSummary(r.Context(), req, res)
	if err != nil {
		reg.Counter("server.errors").Add(1)
		s.fail(w, r, http.StatusUnprocessableEntity, err.Error())
		return
	}
	reg.Counter("server.commsets").Add(1)
	lb, pct := s.cfg.Service.CommOptimality(req, res, sum.Words)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Plancache", resp.Status)
	json.NewEncoder(w).Encode(commResponse{Result: resp.Raw, Comm: sum, CommLowerBound: lb, CommOptimalityPct: pct})
}

// verifyResponse wraps a plan result with its self-check report. Result
// is the canonical plan bytes, unchanged by verification.
type verifyResponse struct {
	Result json.RawMessage `json:"result"`
	Verify *verify.Report  `json:"verify"`
}

// handleVerified re-validates the served plan (reconstruction, rendering
// byte-identity, coverage, occupancy, footprint model) before returning
// it. A failing report is a server error — the service just served a plan
// it cannot stand behind — so the plan is withheld and the report
// returned with 500.
func (s *Server) handleVerified(w http.ResponseWriter, r *http.Request, req looppart.PlanRequest, resp *looppart.PlanResponse) {
	reg := s.cfg.Registry
	res, err := resp.Decode()
	if err != nil {
		reg.Counter("server.errors").Add(1)
		s.fail(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	_, vsp := obs.StartSpan(r.Context(), "verify")
	rep := s.cfg.Service.Verify(req, res)
	vsp.SetAttr("ok", rep.OK())
	vsp.SetAttr("checks", len(rep.Checks))
	vsp.End()
	reg.Counter("server.verifies").Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Plancache", resp.Status)
	if !rep.OK() {
		reg.Counter("server.verify_failures").Add(1)
		obs.TraceFrom(r.Context()).Root().SetAttr("error", "plan verification failed")
		w.WriteHeader(http.StatusInternalServerError)
	}
	json.NewEncoder(w).Encode(verifyResponse{Result: resp.Raw, Verify: rep})
}

// explainResponse wraps a plan result with its decision trace.
type explainResponse struct {
	Result json.RawMessage `json:"result"`
	Trace  string          `json:"trace"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, req looppart.PlanRequest) {
	reg := s.cfg.Registry
	// Exclusive: no other planning may emit into the private trace
	// registry Service.Explain installs.
	s.explainMu.Lock()
	resp, trace, err := s.cfg.Service.Explain(req)
	s.explainMu.Unlock()
	if err != nil {
		reg.Counter("server.errors").Add(1)
		s.fail(w, r, planStatus(err), err.Error())
		return
	}
	reg.Counter("server.explains").Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Plancache", resp.Status)
	json.NewEncoder(w).Encode(explainResponse{Result: resp.Raw, Trace: trace})
}

// batchRequest and batchResponse frame /v1/plan/batch.
type batchRequest struct {
	Requests []looppart.PlanRequest `json:"requests"`
}

type batchItem struct {
	Result json.RawMessage `json:"result,omitempty"`
	Cache  string          `json:"cache,omitempty"`
	Error  string          `json:"error,omitempty"`
}

type batchResponse struct {
	Responses []batchItem `json:"responses"`
}

// maxBatchItems bounds one batch so a single request cannot monopolize
// the planner.
const maxBatchItems = 256

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	reg := s.cfg.Registry
	reg.Counter("server.requests").Add(1)
	if !s.allowTenant(w, r) {
		return
	}
	if !s.admit(w) {
		return
	}
	defer s.release()

	var batch batchRequest
	if !s.decode(w, r, &batch) {
		reg.Counter("server.errors").Add(1)
		return
	}
	if len(batch.Requests) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(batch.Requests) > maxBatchItems {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d exceeds the %d-item limit", len(batch.Requests), maxBatchItems))
		return
	}

	// Items run concurrently; duplicates inside one batch collapse onto a
	// single search through the service's singleflight group.
	items := make([]batchItem, len(batch.Requests))
	var wg sync.WaitGroup
	wg.Add(len(batch.Requests))
	for i, req := range batch.Requests {
		go func(i int, req looppart.PlanRequest) {
			defer wg.Done()
			resp, err := s.plan(r.Context(), req)
			if err != nil {
				items[i] = batchItem{Error: err.Error()}
				return
			}
			items[i] = batchItem{Result: resp.Raw, Cache: resp.Status}
		}(i, req)
	}
	wg.Wait()
	obs.TraceFrom(r.Context()).Root().SetAttr("items", len(batch.Requests))

	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(batchResponse{Responses: items})
}

// handleAutotune runs a measured plan tournament on demand. Tournaments
// replay every candidate through the simulator, so they are the most
// expensive request the server takes — the same admission semaphore that
// bounds planning bounds them, and the explain read-lock keeps their
// telemetry out of private explain registries.
func (s *Server) handleAutotune(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	reg := s.cfg.Registry
	reg.Counter("server.requests").Add(1)
	if !s.allowTenant(w, r) {
		return
	}
	if !s.admit(w) {
		return
	}
	defer s.release()

	var req looppart.PlanRequest
	if !s.decode(w, r, &req) {
		reg.Counter("server.errors").Add(1)
		return
	}
	if s.testPlanGate != nil {
		s.testPlanGate()
	}
	s.explainMu.RLock()
	res, err := s.cfg.Service.Tournament(req)
	s.explainMu.RUnlock()
	if err != nil {
		reg.Counter("server.errors").Add(1)
		s.fail(w, r, planStatus(err), err.Error())
		return
	}
	reg.Counter("server.autotunes").Add(1)
	obs.TraceFrom(r.Context()).Root().SetAttr("winner", res.WinnerCandidate().TileDesc)

	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}

// handlePeerPlan answers a peer replica's fill request: the same body
// as /v1/plan, served via Service.PlanLocal so this replica never
// peer-fills in turn — a fill is structurally one hop. Belt and braces,
// an X-Peer-Hop above cluster.MaxHops is rejected outright, so even a
// misconfigured fleet (two replicas disagreeing about ownership) cannot
// forward a request in a loop. The peer's trace ID arrives on
// X-Trace-Id and is adopted by the tracing middleware, so the owner-side
// flight record joins the originating request's trace.
func (s *Server) handlePeerPlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	reg := s.cfg.Registry
	reg.Counter("server.requests").Add(1)
	reg.Counter("server.peer_requests").Add(1)
	if h := r.Header.Get(cluster.HopHeader); h != "" {
		if hops, err := strconv.Atoi(h); err != nil || hops > cluster.MaxHops {
			reg.Counter("server.peer_loop_rejected").Add(1)
			writeError(w, http.StatusLoopDetected,
				fmt.Sprintf("peer hop count %q exceeds %d", h, cluster.MaxHops))
			return
		}
	}
	if !s.admit(w) {
		return
	}
	defer s.release()

	var req looppart.PlanRequest
	if !s.decode(w, r, &req) {
		reg.Counter("server.errors").Add(1)
		return
	}

	s.explainMu.RLock()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.PlanTimeout)
	resp, err := s.cfg.Service.PlanLocal(ctx, req)
	cancel()
	s.explainMu.RUnlock()
	if err != nil {
		reg.Counter("server.errors").Add(1)
		s.fail(w, r, planStatus(err), err.Error())
		return
	}
	root := obs.TraceFrom(r.Context()).Root()
	root.SetAttr("cache", resp.Status)
	root.SetAttr("peer_from", r.Header.Get(cluster.FromHeader))

	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Plancache", resp.Status)
	w.Write(resp.Raw)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.cfg.SLO.Publish(s.cfg.Registry)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.cfg.Registry.WriteMetricsText(w); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// Exemplar comment lines: the text exposition format (0.0.4) has no
	// native exemplars, so the latest breach per route rides along as a
	// comment a human (or a log pipeline) can join against
	// /debug/flightrec?trace=<id>.
	for _, st := range s.cfg.SLO.Status() {
		ex := st.Exemplar
		if ex == nil {
			continue
		}
		fmt.Fprintf(w, "# EXEMPLAR %s trace_id=%q latency_seconds=%g\n",
			telemetry.PromName("server.slo."+st.Objective.Route+".breach"),
			ex.TraceID, ex.Latency.Seconds())
	}
}
