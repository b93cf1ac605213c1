package main

// program.go is the benchmark's only door into the program under test:
// every call into the root package or an internal layer goes through a
// function here, so a refactor of those layers has one file to update
// here and none elsewhere in the benchmark. Where a layer offers an
// X/XCtx pair, the ctx-first form is the one called.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"looppart"
	"looppart/internal/cachesim"
	"looppart/internal/commsets"
	"looppart/internal/footprint"
	"looppart/internal/loopir"
	"looppart/internal/msgexec"
	"looppart/internal/partition"
	"looppart/internal/plancache"
	"looppart/internal/server"
)

type (
	service  = looppart.Service
	program  = looppart.Program
	plan     = looppart.Plan
	nest     = loopir.Nest
	lruCache = plancache.Cache
	hotTier  = plancache.HotTier
)

func planRequest(r *request) looppart.PlanRequest {
	return looppart.PlanRequest{Source: r.Source, Params: r.Params, Procs: r.Procs, Strategy: r.Strategy}
}

// ---- root package: service and HTTP server ----

// newService returns a Service with library defaults (telemetry off, no
// hot tier, no store).
func newService() *service { return looppart.NewService(looppart.ServiceOptions{}) }

// newHandler returns the /v1 API of an in-process server.New over svc,
// with library defaults.
func newHandler(svc *service) http.Handler {
	return server.New(server.Config{Service: svc}).Handler()
}

// servicePlan answers r through svc, returning how it was served
// ("miss", "hit", ...) and the canonical body bytes.
func servicePlan(ctx context.Context, svc *service, r *request) (string, []byte, error) {
	resp, err := svc.Plan(ctx, planRequest(r))
	if err != nil {
		return "", nil, err
	}
	return resp.Status, resp.Raw, nil
}

// servedPlan is the part of a served /v1/plan body the benchmark reads.
type servedPlan struct {
	Kind             string  `json:"kind"`
	PredictedTraffic float64 `json:"predicted_traffic"`
}

func decodeServed(raw []byte) (servedPlan, error) {
	var s servedPlan
	err := json.Unmarshal(raw, &s)
	return s, err
}

// verifyServed runs Service.Verify on the served body raw for r, and
// returns a description of the failed checks, or "" when all pass.
func verifyServed(svc *service, r *request, raw []byte) string {
	var res looppart.PlanResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return "served body does not decode: " + err.Error()
	}
	rep := svc.Verify(planRequest(r), &res)
	if rep.OK() {
		return ""
	}
	return rep.String()
}

// servedPlanOf reconstructs the plan a served body describes, from the
// serialized fields alone.
func servedPlanOf(r *request, raw []byte) (*plan, error) {
	var res looppart.PlanResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	p, err := parseProgram(r)
	if err != nil {
		return nil, err
	}
	return p.PlanFromResult(&res)
}

// ---- front end: parse, analyze, canonical key ----

func parseProgram(r *request) (*program, error) { return looppart.Parse(r.Source, r.Params) }

// spaceSize is the number of points in the doall iteration space.
func spaceSize(p *program) int64 { return p.Space().Size() }

func parseIR(r *request) (*loopir.Nest, error) { return loopir.Parse(r.Source, r.Params) }

func analyze(n *loopir.Nest) error {
	_, err := footprint.Analyze(n)
	return err
}

func strategyOf(name string) looppart.Strategy {
	s, ok := looppart.ParseStrategy(name)
	if !ok {
		panic("unknown strategy " + name) // the generator only emits registered names
	}
	return s
}

func canonicalKey(p *program, r *request) string {
	return looppart.CanonicalKey(p, r.Procs, strategyOf(r.Strategy))
}

// ---- plancache ----

func newLRU() *lruCache { return plancache.NewCache(0) }

func lruLookup(c *lruCache, key string) bool {
	_, _, ok := c.GetDecoded(key)
	return ok
}

func lruPut(c *lruCache, key string, raw []byte) { c.PutDecoded(key, raw, nil) }

func newHot(n int) *hotTier { return plancache.NewHotTier(n) }

func hotRebuild(h *hotTier, c *lruCache) { h.Rebuild(c) }

func hotGet(h *hotTier, key string) bool {
	_, _, ok := h.Get(key)
	return ok
}

// ---- partition families and tiling ----

// familyOptimize runs the named family's Optimize through the registry.
// found is false when the family reports that no plan of its kind
// exists (comm-free on a nest without a communication-free partition).
func familyOptimize(ctx context.Context, name string, p *program, procs int) (found bool, err error) {
	fam, ok := partition.Lookup(name)
	if !ok {
		return false, fmt.Errorf("no strategy family %q", name)
	}
	if _, err = fam.Optimize(ctx, p.Analysis, procs); errors.Is(err, partition.ErrNoCommFree) {
		return false, nil
	}
	return err == nil, err
}

// partitionPlan is the root PartitionCtx: family search plus tiling.
func partitionPlan(ctx context.Context, p *program, r *request) (*plan, error) {
	return p.PartitionCtx(ctx, r.Procs, strategyOf(r.Strategy))
}

// ---- ground-truth layers ----

// planFacts are the plan properties the certify workload reads.
type planFacts struct {
	tile               bool
	concrete           bool
	predictedFootprint float64
	predictedTraffic   float64
}

func factsOf(pl *plan) planFacts {
	return planFacts{
		tile:               pl.Tile != nil,
		concrete:           pl.Concrete(),
		predictedFootprint: pl.PredictedFootprint,
		predictedTraffic:   pl.PredictedTraffic,
	}
}

// simulate replays the plan on infinite caches (the paper's model) and
// returns the cold misses and the accesses replayed.
func simulate(pl *plan) (coldMisses, accesses int64, err error) {
	var m cachesim.Metrics
	m, err = pl.Simulate(looppart.SimOptions{})
	return m.ColdMisses, m.Accesses, err
}

// commSets computes the plan's exact communication sets, with the
// element lists when materialize is set.
func commSets(ctx context.Context, pl *plan, materialize bool) error {
	_, err := pl.CommSetsCtx(ctx, commsets.Options{Materialize: materialize})
	return err
}

// messagePassing runs the plan under the message-passing executor. It
// errors when the words moved differ from the prediction or the values
// from the sequential run.
func messagePassing(pl *plan) (valuesChecked bool, err error) {
	var rep *msgexec.Report
	if rep, err = pl.ExecuteMessagePassing(); err != nil {
		return false, err
	}
	return rep.ValuesChecked, nil
}

func execute(pl *plan) error {
	_, err := pl.Execute()
	return err
}

// selfCheck returns a description of the failed checks, or "".
func selfCheck(pl *plan) string {
	rep := pl.SelfCheck()
	if rep.OK() {
		return ""
	}
	return rep.String()
}
