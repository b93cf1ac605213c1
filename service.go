package looppart

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"looppart/internal/autotune"
	"looppart/internal/commsets"
	"looppart/internal/obs"
	"looppart/internal/partition"
	"looppart/internal/plancache"
	"looppart/internal/telemetry"
)

// ParseStrategy maps a strategy name (the CLI and HTTP spelling) to its
// Strategy value.
func ParseStrategy(name string) (Strategy, bool) {
	for _, s := range []Strategy{Auto, Rect, Skewed, CommFree, Rows, Columns, Blocks, AbrahamHudak, LowerBound, Oblivious} {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

// CanonicalKey returns the plan-cache key for partitioning the program on
// procs processors with the given strategy. The key is derived from the
// canonicalized nest (renamed indices, sorted references, resolved
// parameters), so the same nest modulo whitespace, index naming, and
// reference order maps to the same key.
func CanonicalKey(prog *Program, procs int, strategy Strategy) string {
	return plancache.Key(prog.Nest, procs, strategy.String())
}

// PlanRequest is one planning question: a loop source, its parameter
// bindings, the processor count, and the strategy name ("" = auto).
type PlanRequest struct {
	Source   string           `json:"source"`
	Params   map[string]int64 `json:"params,omitempty"`
	Procs    int              `json:"procs"`
	Strategy string           `json:"strategy,omitempty"`
}

// PlanResult is the served answer. It is what the cache stores (as
// canonical JSON), so a cache hit is bit-identical to the miss that
// filled it.
type PlanResult struct {
	// Key is the canonical cache key the request mapped to.
	Key string `json:"key"`
	// Strategy is the requested strategy; Resolved is the one the plan
	// actually uses (Auto resolves to comm-free or rect).
	Strategy string `json:"strategy"`
	Resolved string `json:"resolved"`
	Procs    int    `json:"procs"`

	// Kind is "tile", "slab", or "oblivious". Tile plans carry the extents
	// (rectangular) or the full L matrix rows (skewed); slab plans carry
	// the hyperplane; oblivious plans carry the bisection split order.
	Kind         string    `json:"kind"`
	TileExtents  []int64   `json:"tile_extents,omitempty"`
	TileMatrix   [][]int64 `json:"tile_matrix,omitempty"`
	SlabNormal   []int64   `json:"slab_normal,omitempty"`
	SlabWidth    int64     `json:"slab_width,omitempty"`
	SlabCommFree bool      `json:"slab_comm_free,omitempty"`
	// ObliviousOrder is the recursive-bisection dimension priority;
	// ObliviousSymbolic marks a policy-only plan over `?N` bounds.
	ObliviousOrder    []int `json:"oblivious_order,omitempty"`
	ObliviousSymbolic bool  `json:"oblivious_symbolic,omitempty"`

	PredictedFootprint float64 `json:"predicted_footprint,omitempty"`
	PredictedTraffic   float64 `json:"predicted_traffic,omitempty"`

	// Autotuned marks a plan selected by a measured tournament rather
	// than the analytic argmin alone; MeasuredMisses is the winner's
	// simulated miss count and AutotuneRank its analytic rank (0 = the
	// tournament confirmed the analytic choice). All three are absent on
	// analytic plans, keeping their encoding unchanged.
	Autotuned      bool  `json:"autotuned,omitempty"`
	MeasuredMisses int64 `json:"measured_misses,omitempty"`
	AutotuneRank   int   `json:"autotune_rank,omitempty"`

	// Comm is the plan's communication certificate — the exact per-epoch
	// inter-processor word total and its per-processor shape
	// (internal/commsets) — attached only when the service runs with
	// ServiceOptions.CommSets, so default encodings are unchanged.
	Comm *commsets.Summary `json:"comm,omitempty"`

	// CommLowerBound is the Dinh–Demmel communication lower bound for the
	// nest over this processor count, and CommOptimalityPct is
	// 100·bound/measured-words — how close the served plan's exact
	// communication comes to the best any rectangular partition could do.
	// Both are attached only alongside Comm and only for plans resolved in
	// the rectangular-grid family (pointers, so a genuine zero survives
	// omitempty while legacy encodings stay byte-identical).
	CommLowerBound    *int64   `json:"comm_lower_bound,omitempty"`
	CommOptimalityPct *float64 `json:"comm_optimality_pct,omitempty"`

	// Rendered is plan.String() — byte-identical to the partition line
	// cmd/looppart prints for the same nest/procs/strategy.
	Rendered string `json:"rendered"`
}

// PlanResponse pairs a served plan's canonical encoding with how it was
// served.
type PlanResponse struct {
	Key string
	// Status is "miss" (this request ran the search), "hit" (served from
	// the cache), "hot" (served from the lock-free hot tier), "dedup"
	// (joined a search another request started), or "peer" (filled with
	// the key-owner replica's canonical bytes).
	Status string
	// Raw is the canonical JSON encoding of the PlanResult; identical
	// bytes whether the request hit or missed. Shared with the cache:
	// read-only.
	Raw []byte
	// result is Raw decoded: handed over by a path that built or parsed
	// it anyway (miss, explain, peer fill, store hit), else parsed by
	// Decode on first use. Cache hits carry only the bytes.
	result *PlanResult
}

// Hit reports whether the response was served without running a search.
func (r *PlanResponse) Hit() bool { return r.Status != "miss" }

// Decode returns the decoded result, parsing Raw on first use. The struct
// and its slices are owned by this response: no other response or cache
// entry shares them, so callers may modify them freely.
func (r *PlanResponse) Decode() (*PlanResult, error) {
	if r.result == nil {
		res := &PlanResult{}
		if err := json.Unmarshal(r.Raw, res); err != nil {
			return nil, fmt.Errorf("looppart: undecodable plan for %s: %v", r.Key, err)
		}
		r.result = res
	}
	return r.result, nil
}

// PeerFiller fetches a plan's canonical bytes from the replica that
// owns its key on the cluster's consistent-hash ring (internal/cluster
// implements it). Fill returns ok=false when this replica should search
// locally instead: it owns the key itself, the owner's circuit breaker
// is open, or the owner could not answer in time. reqBody is the
// marshaled PlanRequest the owner replans from; the returned bytes are
// the owner's canonical PlanResult encoding, byte-identical to what the
// owner itself serves.
type PeerFiller interface {
	Fill(ctx context.Context, key string, reqBody []byte) ([]byte, bool)
}

// ServiceOptions configures a Service.
type ServiceOptions struct {
	// CacheBytes bounds the plan cache (plancache.DefaultMaxBytes when 0).
	CacheBytes int64
	// Store, when non-nil, persists every served plan and warm-starts
	// the in-memory cache from past sessions at construction. The store
	// is keyed by canonical plan key + machine fingerprint + schema, so
	// a restarted daemon serves its first repeat request as a
	// byte-identical hit without re-running the search.
	Store *autotune.Store
	// AutotuneK, when > 0, switches searches to measured tournaments
	// over the top-K analytic candidates (Program.Autotune). 0 keeps the
	// pure analytic pipeline.
	AutotuneK int
	// Fingerprint supplies the tournament's cost constants; zero value
	// means the model defaults. Ignored when AutotuneK == 0.
	Fingerprint autotune.Fingerprint
	// AutotuneCacheLines bounds the simulated caches during tournament
	// replays (0 = infinite, the paper's model). Ignored when
	// AutotuneK == 0.
	AutotuneCacheLines int
	// HotKeys, when > 0, pins the top-N hottest plans in an immutable
	// lock-free tier above the LRU (plancache.HotTier): a hot hit is an
	// atomic pointer load plus a map read, no LRU mutex. 0 disables.
	HotKeys int
	// HotRebuildEvery is the request cadence at which the hot tier is
	// re-snapshotted from the LRU's hit counts
	// (plancache.DefaultHotRebuildEvery when 0).
	HotRebuildEvery int
	// PeerFill, when non-nil, lets a local miss ask the key-owner
	// replica for the canonical bytes before searching. The fill runs
	// inside the singleflight, so concurrent misses for one key cost at
	// most one peer round-trip — and, fleet-wide, one search.
	PeerFill PeerFiller
	// CommSets attaches each searched plan's communication-set summary
	// (exact words per epoch) to the served result. Off by default: the
	// analysis costs a pass over the plan's reference classes, and the
	// extra field changes the canonical plan bytes.
	CommSets bool
	// Strategies, when non-empty, is the set of strategy names this
	// service will plan (the -strategies flag): requests naming any other
	// strategy are rejected before parsing. Empty means all registered
	// strategies are enabled.
	Strategies []string
}

// Service is the embeddable planning facade behind cmd/looppartd: it
// answers PlanRequests through a canonicalized plan cache with
// singleflight deduplication, so repeated and concurrent requests for the
// same nest cost one search. A Service is safe for concurrent use.
type Service struct {
	cache          *plancache.Cache
	hot            *plancache.HotTier
	hotEvery       int64
	group          plancache.Group[*PlanResponse]
	peer           PeerFiller
	store          *autotune.Store
	autotuneK      int
	fingerprint    autotune.Fingerprint
	autotuneCLines int
	commSets       bool
	strategies     map[string]bool // enabled strategy names; nil = all

	// The service's own event counters: Stats reports them, and Collect
	// exports them to a telemetry registry at snapshot time.
	requests      atomic.Int64
	searches      atomic.Int64
	cacheHits     atomic.Int64 // memory hits + singleflight joins
	hotHits       atomic.Int64 // served from the lock-free hot tier
	peerHits      atomic.Int64 // filled from the key-owner replica
	peerFallbacks atomic.Int64 // peer fill declined/failed, searched locally
	peerBadFills  atomic.Int64 // peer bytes that were not this key's plan
	storeHits     atomic.Int64 // served from the persistent store
	storeErrors   atomic.Int64 // failed store writes
	commErrors    atomic.Int64 // searched plans served without their comm summary
	errors        atomic.Int64
	warmLoaded    atomic.Int64                // entries loaded from the store at boot
	warmSkipped   atomic.Int64                // store entries that failed to decode at boot
	byStrategy    [Oblivious + 1]atomic.Int64 // requests per strategy
}

// NewService returns a ready Service. When a store is configured, its
// entries (this machine fingerprint's, valid ones only) are loaded into
// the in-memory cache before the service answers anything.
func NewService(opts ServiceOptions) *Service {
	s := &Service{
		cache:          plancache.NewCache(opts.CacheBytes),
		hot:            plancache.NewHotTier(opts.HotKeys),
		hotEvery:       int64(opts.HotRebuildEvery),
		peer:           opts.PeerFill,
		store:          opts.Store,
		autotuneK:      opts.AutotuneK,
		fingerprint:    opts.Fingerprint,
		autotuneCLines: opts.AutotuneCacheLines,
		commSets:       opts.CommSets,
	}
	if len(opts.Strategies) > 0 {
		s.strategies = make(map[string]bool, len(opts.Strategies))
		for _, name := range opts.Strategies {
			s.strategies[name] = true
		}
	}
	if s.hotEvery <= 0 {
		s.hotEvery = plancache.DefaultHotRebuildEvery
	}
	if s.hot != nil {
		// A key the LRU evicts or re-fills with different bytes must stop
		// serving from the hot snapshot immediately, not at the next
		// rebuild.
		s.cache.OnInvalidate(s.hot.Invalidate)
	}
	if s.store != nil {
		// Decode each stored plan once, here, to validate it: an entry
		// that is not this key's plan is left out and counted. The cache
		// keeps the bytes only.
		_ = s.store.Each(func(key string, val []byte) {
			var dec PlanResult
			if err := json.Unmarshal(val, &dec); err != nil || dec.Key != key {
				s.warmSkipped.Add(1)
				return
			}
			s.cache.PutDecoded(key, val, nil)
			s.warmLoaded.Add(1)
		})
	}
	return s
}

// ServiceStats is a point-in-time view of the service counters.
type ServiceStats struct {
	Requests int64 `json:"requests"`
	// Searches counts partition searches actually executed.
	Searches int64 `json:"searches"`
	// CacheHits counts requests served without a search of their own:
	// plan-cache hits plus singleflight joins.
	CacheHits int64 `json:"cache_hits"`
	// HotHits counts requests served from the lock-free hot tier
	// (included in CacheHits: a hot hit is still a local cache hit).
	HotHits int64 `json:"hot_hits,omitempty"`
	// PeerHits counts misses filled with the key-owner replica's
	// canonical bytes instead of a local search.
	PeerHits int64 `json:"peer_hits,omitempty"`
	// PeerFallbacks counts misses where the peer fill declined or
	// failed and the search ran locally after all.
	PeerFallbacks int64 `json:"peer_fallbacks,omitempty"`
	// StoreHits counts requests served from the persistent store after
	// missing the in-memory cache (e.g. post-eviction).
	StoreHits int64 `json:"store_hits,omitempty"`
	// WarmLoaded counts store entries preloaded into the cache at boot.
	WarmLoaded int64                `json:"warm_loaded,omitempty"`
	Errors     int64                `json:"errors"`
	Cache      plancache.Stats      `json:"cache"`
	Hot        *plancache.HotStats  `json:"hot,omitempty"`
	Store      *autotune.StoreStats `json:"store,omitempty"`
}

// Stats returns the current counters.
func (s *Service) Stats() ServiceStats {
	st := ServiceStats{
		Requests:      s.requests.Load(),
		Searches:      s.searches.Load(),
		CacheHits:     s.cacheHits.Load(),
		HotHits:       s.hotHits.Load(),
		PeerHits:      s.peerHits.Load(),
		PeerFallbacks: s.peerFallbacks.Load(),
		StoreHits:     s.storeHits.Load(),
		WarmLoaded:    s.warmLoaded.Load(),
		Errors:        s.errors.Load(),
		Cache:         s.cache.Stats(),
	}
	if s.hot != nil {
		hs := s.hot.Stats()
		st.Hot = &hs
	}
	if s.store != nil {
		ss := s.store.Stats()
		st.Store = &ss
	}
	return st
}

// Collect writes the service's counters, and those of the plan cache,
// hot tier, and store it owns, into snap. Register it with
// telemetry.Registry.Collect: the registry then reads the counters the
// service already keeps, instead of counting each event again.
func (s *Service) Collect(snap telemetry.Snapshot) {
	c, g := snap.Counters, snap.Gauges
	c["service.plan.requests"] = s.requests.Load()
	c["service.plan.errors"] = s.errors.Load()
	c["service.plan.search"] = s.searches.Load()
	c["service.plan.cache_hit"] = s.cacheHits.Load()
	g["service.searches"] = float64(s.searches.Load())
	g["service.cache_hits"] = float64(s.cacheHits.Load())
	for st := range s.byStrategy {
		if n := s.byStrategy[st].Load(); n > 0 {
			c["service.plan.strategy."+Strategy(st).String()] = n
		}
	}
	if s.commSets {
		c["service.plan.comm_errors"] = s.commErrors.Load()
	}
	s.cache.Collect(snap)
	if s.hot != nil {
		c["service.plan.hot_hit"] = s.hotHits.Load()
		g["service.hot_hits"] = float64(s.hotHits.Load())
		s.hot.Collect(snap)
	}
	if s.store != nil {
		c["service.plan.store_hit"] = s.storeHits.Load()
		c["service.store.warm_loaded"] = s.warmLoaded.Load()
		c["service.store.warm_skipped"] = s.warmSkipped.Load()
		c["service.store.put_errors"] = s.storeErrors.Load()
		g["service.store_hits"] = float64(s.storeHits.Load())
		g["service.warm_loaded"] = float64(s.warmLoaded.Load())
		s.store.Collect(snap)
	}
	if s.peer != nil {
		c["service.plan.peer_hit"] = s.peerHits.Load()
		c["service.plan.peer_fallback"] = s.peerFallbacks.Load()
		c["service.plan.peer_bad_fill"] = s.peerBadFills.Load()
		g["service.peer_hits"] = float64(s.peerHits.Load())
		g["service.peer_fallbacks"] = float64(s.peerFallbacks.Load())
	}
}

// Autotuned reports whether searches run measured tournaments.
func (s *Service) Autotuned() bool { return s.autotuneK > 0 }

// TopKeys returns the k most-served plan-cache entries with their hit
// counts and byte occupancy (the /debug/cache hot-key dump).
func (s *Service) TopKeys(k int) []plancache.KeyStat { return s.cache.TopKeys(k) }

// Flights snapshots the live singleflight flights — key, owner trace ID,
// and how many coalesced waiters are blocked on each (for /debug/cache).
func (s *Service) Flights() []plancache.FlightInfo { return s.group.Flights() }

// Plan answers req, serving from the cache when possible. ctx bounds only
// this caller's wait: an in-flight search continues after ctx expires and
// still fills the cache. Errors are not cached.
//
// With a PeerFiller configured, a miss asks the key-owner replica
// before searching; with a hot tier, the hottest keys are served above
// the LRU without taking its lock.
func (s *Service) Plan(ctx context.Context, req PlanRequest) (*PlanResponse, error) {
	return s.plan(ctx, req, true)
}

// PlanLocal is Plan without the peer-fill hop: the answer is produced
// from this replica's caches and search alone. It is what the
// /v1/peer/plan handler serves, so a fill is structurally one hop —
// an owner never forwards a peer's question to a third replica.
func (s *Service) PlanLocal(ctx context.Context, req PlanRequest) (*PlanResponse, error) {
	return s.plan(ctx, req, false)
}

// RebuildHot re-snapshots the hot tier from the LRU immediately (the
// service refreshes it every HotRebuildEvery requests on its own).
func (s *Service) RebuildHot() {
	s.hot.Rebuild(s.cache)
}

func (s *Service) plan(ctx context.Context, req PlanRequest, allowPeer bool) (*PlanResponse, error) {
	n := s.requests.Add(1)
	if s.hot != nil && n%s.hotEvery == 0 {
		// Periodic snapshot refresh; hits between rebuilds serve the
		// previous snapshot lock-free.
		s.hot.Rebuild(s.cache)
	}

	prog, procs, strategy, err := s.prepare(ctx, req)
	if err != nil {
		s.errors.Add(1)
		return nil, err
	}
	key := CanonicalKey(prog, procs, strategy)
	// Stamp the canonical key on the enclosing request span (the server's
	// root), so a flight record is findable by key.
	obs.SpanFrom(ctx).SetAttr("key", key)

	// Cache entries hold the canonical bytes only: a hit hands them over
	// and parses nothing; PlanResponse.Decode parses on demand.
	if raw, _, ok := s.hot.Get(key); ok {
		s.hotHits.Add(1)
		s.cacheHits.Add(1)
		return &PlanResponse{Key: key, Status: "hot", Raw: raw}, nil
	}

	_, csp := obs.StartSpan(ctx, "cache.lookup")
	raw, _, ok := s.cache.GetDecoded(key)
	if ok {
		csp.SetAttr("outcome", "hit")
		csp.End()
		s.cacheHits.Add(1)
		return &PlanResponse{Key: key, Status: "hit", Raw: raw}, nil
	}
	csp.SetAttr("outcome", "miss")
	csp.End()
	if s.store != nil {
		_, ssp := obs.StartSpan(ctx, "store.lookup")
		if raw, ok := s.store.Get(key); ok {
			// Evicted from memory (or written by another process) but
			// still on disk: re-admit and serve the stored bytes — the
			// same canonical encoding a memory hit returns.
			ssp.SetAttr("outcome", "hit")
			ssp.End()
			dec := &PlanResult{}
			if err := json.Unmarshal(raw, dec); err != nil {
				s.errors.Add(1)
				return nil, fmt.Errorf("looppart: corrupt cached plan for %s: %v", key, err)
			}
			s.cache.PutDecoded(key, raw, nil)
			s.storeHits.Add(1)
			s.cacheHits.Add(1)
			return &PlanResponse{Key: key, Status: "hit", Raw: raw, result: dec}, nil
		}
		ssp.SetAttr("outcome", "miss")
		ssp.End()
	}

	// The singleflight span wraps the wait; fn captures sfctx so that when
	// this caller owns the flight, the search spans attach under it. A
	// coalesced waiter's fn never runs — its span records the owner's
	// trace ID instead, linking the two trees. The flight's value is the
	// owner's response; only the owner takes its decoded result.
	sfctx, sfsp := obs.StartSpan(ctx, "singleflight")
	resp, shared, ownerTrace, err := s.group.Do(sfctx, key, func() (*PlanResponse, error) {
		// Peer fill runs inside the flight: the local duplicates already
		// collapsed here, and on the key-owner replica the fill requests
		// collapse into its own singleflight — one search fleet-wide.
		if allowPeer && s.peer != nil {
			if dec, raw := s.peerFill(sfctx, key, req); dec != nil {
				return &PlanResponse{Key: key, Status: "peer", Raw: raw, result: dec}, nil
			}
			s.peerFallbacks.Add(1)
		}
		s.searches.Add(1)
		sctx, ssp := obs.StartSpan(sfctx, "search")
		ssp.SetAttr("strategy", strategy.String())
		ssp.SetAttr("procs", procs)
		ssp.SetAttr("autotune_k", s.autotuneK)
		raw, dec, err := s.search(sctx, prog, key, procs, req.Strategy, strategy)
		ssp.End()
		if err != nil {
			return nil, err
		}
		_, psp := obs.StartSpan(sfctx, "store.persist")
		psp.SetAttr("bytes", len(raw))
		s.cache.PutDecoded(key, raw, nil)
		s.persist(key, raw)
		psp.End()
		return &PlanResponse{Key: key, Status: "miss", Raw: raw, result: dec}, nil
	})
	if shared {
		sfsp.SetAttr("role", "waiter")
		if ownerTrace != "" {
			sfsp.SetAttr("owner_trace", ownerTrace)
		}
	} else {
		sfsp.SetAttr("role", "owner")
	}
	sfsp.End()
	if err != nil {
		s.errors.Add(1)
		return nil, err
	}
	if shared {
		// Joining a flight is a logical cache hit: the plan this request
		// needed was already being produced. The waiter gets the bytes and
		// decodes its own struct on demand.
		s.cacheHits.Add(1)
		return &PlanResponse{Key: key, Status: "dedup", Raw: resp.Raw}, nil
	}
	if resp.Status == "peer" {
		// This caller owned the flight and the key-owner replica supplied
		// the canonical bytes: no local search ran.
		s.peerHits.Add(1)
	}
	return resp, nil
}

// peerFill asks the key-owner replica for key's canonical bytes and, on
// success, admits them locally exactly as a search would — cache and
// store both — so the next request for key is an ordinary local hit.
// Returns (nil, nil) when the fill declined (self-owned key, breaker
// open, owner unreachable) or the owner's bytes failed validation; the
// caller then searches locally.
func (s *Service) peerFill(ctx context.Context, key string, req PlanRequest) (*PlanResult, []byte) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil
	}
	raw, ok := s.peer.Fill(ctx, key, body)
	if !ok {
		return nil, nil
	}
	dec := &PlanResult{}
	if err := json.Unmarshal(raw, dec); err != nil || dec.Key != key {
		// The owner answered with bytes that are not this key's plan —
		// version skew or corruption. Never cache the mismatch; search
		// locally instead.
		s.peerBadFills.Add(1)
		return nil, nil
	}
	_, psp := obs.StartSpan(ctx, "store.persist")
	psp.SetAttr("bytes", len(raw))
	psp.SetAttr("source", "peer")
	s.cache.PutDecoded(key, raw, nil)
	s.persist(key, raw)
	psp.End()
	return dec, raw
}

// CommSummary computes the communication-set summary for a served plan
// on demand (the ?commsets=1 envelope): the plan is reconstructed from
// the serialized result alone — like Verify — so the certificate
// describes what was actually served. Works regardless of
// ServiceOptions.CommSets; results already carrying a summary are
// answered from the attached one without recomputation.
func (s *Service) CommSummary(ctx context.Context, req PlanRequest, res *PlanResult) (*commsets.Summary, error) {
	if res.Comm != nil {
		return res.Comm, nil
	}
	prog, procs, _, err := s.prepare(ctx, req)
	if err != nil {
		return nil, err
	}
	if procs != res.Procs {
		return nil, fmt.Errorf("looppart: request procs %d != served procs %d", procs, res.Procs)
	}
	plan, err := prog.PlanFromResult(res)
	if err != nil {
		return nil, err
	}
	return plan.CommSummary(ctx)
}

// CommOptimality scores a served plan's exact communication word count
// against the nest's Dinh–Demmel lower bound (the ?commsets=1 envelope's
// comm_lower_bound / comm_optimality_pct fields). It returns non-nil only
// for plans resolved in the rectangular-grid family — rect and lowerbound
// — whose tiles are rectangular: only those provably come from the
// factorization grids the bound minimizes over. Nil results mean "no
// claim", never an error: the envelope simply omits the fields.
func (s *Service) CommOptimality(req PlanRequest, res *PlanResult, words int64) (*int64, *float64) {
	if (res.Resolved != Rect.String() && res.Resolved != LowerBound.String()) ||
		res.Kind != "tile" || len(res.TileExtents) == 0 {
		return nil, nil
	}
	if res.CommLowerBound != nil && res.CommOptimalityPct != nil {
		return res.CommLowerBound, res.CommOptimalityPct
	}
	prog, err := Parse(req.Source, req.Params)
	if err != nil {
		return nil, nil
	}
	lb, err := partition.CommLowerBound(prog.Analysis, res.Procs)
	if err != nil {
		return nil, nil
	}
	bound := lb.Words
	var pct float64
	switch {
	case words > 0:
		pct = 100 * float64(bound) / float64(words)
	case bound == 0:
		pct = 100
	}
	return &bound, &pct
}

// Explain answers req with a fresh, uncached pipeline run and returns the
// decision trace alongside the result. It temporarily installs a private
// telemetry registry to collect the trace, so the caller must guarantee
// no concurrent planning (cmd/looppartd serializes explain requests
// behind a write lock). The computed plan still fills the cache, with
// bytes identical to the normal path.
func (s *Service) Explain(req PlanRequest) (*PlanResponse, string, error) {
	s.requests.Add(1)
	reg := telemetry.New()
	prev := telemetry.SetActive(reg)
	defer telemetry.SetActive(prev)

	prog, procs, strategy, err := s.prepare(context.Background(), req)
	if err != nil {
		s.errors.Add(1)
		return nil, "", err
	}
	key := CanonicalKey(prog, procs, strategy)
	s.searches.Add(1)
	raw, dec, err := s.search(context.Background(), prog, key, procs, req.Strategy, strategy)
	if err != nil {
		s.errors.Add(1)
		return nil, "", err
	}
	s.cache.PutDecoded(key, raw, nil)
	s.persist(key, raw)
	return &PlanResponse{Key: key, Status: "bypass", Raw: raw, result: dec}, reg.FormatDecisionTrace(), nil
}

// prepare validates and parses the request, its parse and analyze spans
// in ctx.
func (s *Service) prepare(ctx context.Context, req PlanRequest) (*Program, int, Strategy, error) {
	if req.Procs < 1 {
		return nil, 0, 0, fmt.Errorf("looppart: procs must be >= 1 (got %d)", req.Procs)
	}
	name := req.Strategy
	if name == "" {
		name = Auto.String()
	}
	strategy, ok := ParseStrategy(name)
	if !ok {
		return nil, 0, 0, fmt.Errorf("looppart: unknown strategy %q", req.Strategy)
	}
	if s.strategies != nil && !s.strategies[name] {
		enabled := make([]string, 0, len(s.strategies))
		for n := range s.strategies {
			enabled = append(enabled, n)
		}
		sort.Strings(enabled)
		return nil, 0, 0, fmt.Errorf("looppart: strategy %q is not enabled (enabled: %s)",
			name, strings.Join(enabled, ", "))
	}
	s.byStrategy[strategy].Add(1)
	prog, err := parse(ctx, req.Source, req.Params)
	if err != nil {
		return nil, 0, 0, err
	}
	return prog, req.Procs, strategy, nil
}

// persist writes a served plan through to the store, if one is attached.
// Store failures are counted, never fatal: the plan is already served and
// cached in memory.
func (s *Service) persist(key string, raw []byte) {
	if s.store == nil {
		return
	}
	if err := s.store.Put(key, raw); err != nil {
		s.storeErrors.Add(1)
	}
}

// Tournament runs a measured plan tournament for req on demand and
// returns the full predicted-vs-measured result, regardless of the
// service's autotune mode. The winner is persisted like any served plan,
// so a later Plan call for the same nest hits.
func (s *Service) Tournament(req PlanRequest) (*autotune.Result, error) {
	s.requests.Add(1)
	prog, procs, strategy, err := s.prepare(context.Background(), req)
	if err != nil {
		s.errors.Add(1)
		return nil, err
	}
	k := s.autotuneK
	if k <= 0 {
		k = 4
	}
	s.searches.Add(1)
	plan, res, err := prog.Autotune(context.Background(), procs, strategy, AutotuneOptions{
		TopK: k, Fingerprint: s.fingerprint, CacheLines: s.autotuneCLines,
	})
	if err != nil {
		s.errors.Add(1)
		return nil, err
	}
	if res == nil {
		// Comm-free or a fixed-shape strategy: no tournament to report.
		return nil, fmt.Errorf("looppart: strategy %s resolves without a tournament (plan %s)",
			strategy.String(), plan.String())
	}
	key := CanonicalKey(prog, procs, strategy)
	if raw, _, err := s.encode(context.Background(), plan, res, key, req.Strategy, strategy, procs); err == nil {
		s.cache.PutDecoded(key, raw, nil)
		s.persist(key, raw)
	}
	return res, nil
}

// search runs the partition search (a measured tournament in autotune
// mode) and encodes the result canonically, returning both the canonical
// bytes and the decoded result they encode.
func (s *Service) search(ctx context.Context, prog *Program, key string, procs int, requested string, strategy Strategy) ([]byte, *PlanResult, error) {
	var (
		plan *Plan
		res  *autotune.Result
		err  error
	)
	if s.autotuneK > 0 {
		plan, res, err = prog.Autotune(ctx, procs, strategy, AutotuneOptions{
			TopK: s.autotuneK, Fingerprint: s.fingerprint, CacheLines: s.autotuneCLines,
		})
	} else {
		plan, err = prog.PartitionCtx(ctx, procs, strategy)
	}
	if err != nil {
		return nil, nil, err
	}
	return s.encode(ctx, plan, res, key, requested, strategy, procs)
}

// encodeBufPool recycles the JSON render buffers: encode copies the
// canonical bytes out (the cache retains them indefinitely), so the
// buffer itself can be reused across requests.
var encodeBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encode renders the canonical JSON for a served plan (res non-nil marks
// a tournament winner), returning the bytes and the PlanResult they
// encode, so a response can carry the struct without a decode round-trip.
func (s *Service) encode(ctx context.Context, plan *Plan, res *autotune.Result, key, requested string, strategy Strategy, procs int) ([]byte, *PlanResult, error) {
	if requested == "" {
		requested = strategy.String()
	}
	result := &PlanResult{
		Key:                key,
		Strategy:           requested,
		Resolved:           plan.Strategy.String(),
		Procs:              procs,
		PredictedFootprint: plan.PredictedFootprint,
		PredictedTraffic:   plan.PredictedTraffic,
		Rendered:           plan.String(),
	}
	if res != nil {
		w := res.WinnerCandidate()
		result.Autotuned = true
		result.MeasuredMisses = w.MeasuredMisses
		result.AutotuneRank = w.Rank
	}
	if s.commSets {
		// Best-effort: a plan whose communication sets cannot be computed
		// (e.g. scan budget exceeded) is still a valid plan; it is served
		// without the certificate.
		if sum, err := plan.CommSummary(ctx); err == nil {
			result.Comm = sum
		} else {
			s.commErrors.Add(1)
		}
	}
	switch {
	case plan.Slab != nil:
		result.Kind = "slab"
		result.SlabNormal = plan.Slab.Normal
		result.SlabWidth = plan.Slab.Width
		result.SlabCommFree = plan.Slab.CommFree
	case plan.Tile != nil:
		result.Kind = "tile"
		if plan.Tile.IsRect() {
			result.TileExtents = plan.Tile.Extents()
		} else {
			l := plan.Tile.L
			result.TileMatrix = make([][]int64, l.Rows())
			for i := range result.TileMatrix {
				row := make([]int64, l.Cols())
				for j := range row {
					row[j] = l.At(i, j)
				}
				result.TileMatrix[i] = row
			}
		}
	case plan.Oblivious != nil:
		result.Kind = "oblivious"
		result.ObliviousOrder = plan.Oblivious.Order
		result.ObliviousSymbolic = plan.Oblivious.Symbolic
	}
	// With the exact word count in hand, sandwich it against the
	// communication lower bound — but only for plans the rectangular-grid
	// family produced (rect and lowerbound): those provably come from the
	// same factorization grids the bound minimizes over, so bound ≤ words
	// is an invariant, not a hope. Skewed and fixed-shape plans may sit
	// outside that family.
	if result.Comm != nil && (plan.Strategy == Rect || plan.Strategy == LowerBound) &&
		plan.Tile != nil && plan.Tile.IsRect() {
		if lb, err := partition.CommLowerBound(plan.Program.Analysis, procs); err == nil {
			bound := lb.Words
			var pct float64
			switch {
			case result.Comm.Words > 0:
				pct = 100 * float64(bound) / float64(result.Comm.Words)
			case bound == 0:
				pct = 100 // zero communication is trivially optimal
			}
			result.CommLowerBound = &bound
			result.CommOptimalityPct = &pct
		}
	}
	buf := encodeBufPool.Get().(*bytes.Buffer)
	defer encodeBufPool.Put(buf)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(result); err != nil {
		return nil, nil, err
	}
	// Drop Encode's trailing newline so the stored value is exactly the
	// JSON object; transports add their own framing. Copy out of the
	// pooled buffer: the cache keeps the returned slice.
	b := bytes.TrimRight(buf.Bytes(), "\n")
	raw := make([]byte, len(b))
	copy(raw, b)
	return raw, result, nil
}
