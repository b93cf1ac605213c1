package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"looppart/internal/obs"
	"looppart/internal/telemetry"
)

// PeerPlanPath is the peer-fill endpoint every replica serves: POST a
// PlanRequest body, receive the owner's canonical plan bytes. The
// handler plans locally only (never peer-fills in turn), so a fill is
// structurally at most one hop.
const PeerPlanPath = "/v1/peer/plan"

// Header names of the peer-fill hop protocol.
const (
	// HopHeader carries the peer-fill hop count. The serving replica
	// sends 1; a receiving replica rejects anything above MaxHops, so a
	// misconfigured ring cannot forward a request in a loop.
	HopHeader = "X-Peer-Hop"
	// FromHeader names the requesting replica, for the owner's logs.
	FromHeader = "X-Peer-From"
	// traceHeader joins the peer hop into the originating request's
	// trace (the server's tracing middleware accepts it).
	traceHeader = "X-Trace-Id"
)

// MaxHops is the largest hop count a replica accepts on HopHeader.
// Peer fills are owner lookups, not routing: one hop reaches the owner.
const MaxHops = 1

// Client defaults.
const (
	// DefaultFillTimeout bounds one Fill including the hedge. It must
	// comfortably cover the owner's search (sub-2ms enumerated, but an
	// autotune tournament can take much longer), yet stay under the
	// server's own plan deadline so the fallback search still fits.
	DefaultFillTimeout = 5 * time.Second
	// DefaultHedgeDelay is how long Fill waits before duplicating the
	// in-flight request. The duplicate lands in the owner's singleflight
	// for the same key, so hedging costs a cheap coalesced wait, never a
	// second search.
	DefaultHedgeDelay = 250 * time.Millisecond
	// maxFillBody bounds a peer response body. Canonical plans are a few
	// hundred bytes; anything near this limit is not a plan.
	maxFillBody = 4 << 20
)

// Options configures a Client.
type Options struct {
	// Self is this replica's own member name (its advertised base URL).
	// Keys Self owns are not peer-filled — the caller searches locally.
	// Self may be absent from Members (a pure client), in which case
	// every key is peer-filled.
	Self string
	// Members are the ring members as base URLs (http://host:port).
	// Order-independent; duplicates and empty strings are dropped.
	Members []string
	// VNodes is the virtual-node count per member (DefaultVNodes if 0).
	VNodes int
	// FillTimeout bounds one Fill end to end (DefaultFillTimeout if 0).
	FillTimeout time.Duration
	// HedgeDelay is the straggler cutoff before the request is
	// duplicated (DefaultHedgeDelay if 0, negative disables hedging).
	HedgeDelay time.Duration
	// BreakerThreshold and BreakerCooldown parameterize the per-peer
	// circuit breakers (package defaults if 0).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// HTTPClient overrides the transport (a client with keep-alives and
	// no overall timeout is built if nil — Fill applies its own).
	HTTPClient *http.Client
}

// Client is the peer-fill side of a replica: it maps keys to owners on
// the ring and fetches canonical plan bytes from them with per-peer
// circuit breakers, a fill timeout, and a hedged second request against
// stragglers. Safe for concurrent use.
type Client struct {
	self       string
	ring       *Ring
	http       *http.Client
	timeout    time.Duration
	hedgeDelay time.Duration
	breakers   map[string]*Breaker

	fills        atomic.Int64 // successful peer fills
	fillFailures atomic.Int64 // owner contacted, no plan obtained
	selfOwned    atomic.Int64 // key owned locally, no fill attempted
	breakerSkips atomic.Int64 // fill skipped, owner's breaker open
	hedges       atomic.Int64 // hedged duplicate requests sent
}

// New builds a Client for opts.
func New(opts Options) *Client {
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	if opts.FillTimeout == 0 {
		opts.FillTimeout = DefaultFillTimeout
	}
	if opts.HedgeDelay == 0 {
		opts.HedgeDelay = DefaultHedgeDelay
	}
	c := &Client{
		self:       opts.Self,
		ring:       NewRing(opts.Members, opts.VNodes),
		http:       hc,
		timeout:    opts.FillTimeout,
		hedgeDelay: opts.HedgeDelay,
		breakers:   make(map[string]*Breaker),
	}
	for _, m := range c.ring.Members() {
		if m != c.self {
			c.breakers[m] = NewBreaker(opts.BreakerThreshold, opts.BreakerCooldown)
		}
	}
	return c
}

// Ring returns the client's ring.
func (c *Client) Ring() *Ring { return c.ring }

// Self returns this replica's member name.
func (c *Client) Self() string { return c.self }

// Owner returns the member owning key.
func (c *Client) Owner(key string) string { return c.ring.Owner(key) }

// Fill fetches key's canonical plan bytes from its owner replica. It
// returns ok=false — telling the caller to search locally — when this
// replica owns the key, the owner's breaker is open, or the owner could
// not produce the plan within the fill timeout. The attempt is traced as
// a peer.fill span with owner/hop/outcome attributes, and the hop
// carries the request's trace ID so the owner's flight record joins the
// originating trace.
func (c *Client) Fill(ctx context.Context, key string, reqBody []byte) ([]byte, bool) {
	_, sp := obs.StartSpan(ctx, "peer.fill")
	defer sp.End()
	sp.SetAttr("hop", 1)
	owner := c.ring.Owner(key)
	sp.SetAttr("owner", owner)
	if owner == "" || owner == c.self {
		c.selfOwned.Add(1)
		sp.SetAttr("outcome", "self")
		return nil, false
	}
	br := c.breakers[owner]
	if br == nil || !br.Allow() {
		c.breakerSkips.Add(1)
		sp.SetAttr("outcome", "breaker_open")
		return nil, false
	}
	fctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	raw, err := c.hedgedFetch(fctx, owner, reqBody, obs.TraceID(ctx))
	if err != nil {
		br.Failure()
		c.fillFailures.Add(1)
		sp.SetAttr("outcome", "error")
		sp.SetAttr("error", err.Error())
		return nil, false
	}
	br.Success()
	c.fills.Add(1)
	sp.SetAttr("outcome", "filled")
	sp.SetAttr("bytes", len(raw))
	return raw, true
}

// fillResult is one attempt's outcome.
type fillResult struct {
	raw []byte
	err error
}

// hedgedFetch posts reqBody to owner's peer endpoint, duplicating the
// request after the hedge delay; the first success wins and the loser
// is canceled via ctx. Duplicates collapse in the owner's singleflight,
// so a hedge never causes a second search.
func (c *Client) hedgedFetch(ctx context.Context, owner string, reqBody []byte, traceID string) ([]byte, error) {
	results := make(chan fillResult, 2)
	attempt := func() {
		raw, err := c.fetch(ctx, owner, reqBody, traceID)
		results <- fillResult{raw, err}
	}
	go attempt()
	outstanding := 1
	var hedgeTimer <-chan time.Time
	if c.hedgeDelay > 0 { // negative delay: hedging disabled
		t := time.NewTimer(c.hedgeDelay)
		defer t.Stop()
		hedgeTimer = t.C
	}
	var firstErr error
	for {
		select {
		case r := <-results:
			if r.err == nil {
				return r.raw, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if outstanding--; outstanding == 0 {
				// Every attempt has answered. A definitive refusal
				// arriving before the hedge timer also ends here: the
				// peer said no, a duplicate ask would too.
				return nil, firstErr
			}
		case <-hedgeTimer:
			hedgeTimer = nil
			c.hedges.Add(1)
			outstanding++
			go attempt()
		case <-ctx.Done():
			if firstErr == nil {
				firstErr = ctx.Err()
			}
			return nil, firstErr
		}
	}
}

// fetch is one HTTP attempt against owner's peer endpoint.
func (c *Client) fetch(ctx context.Context, owner string, reqBody []byte, traceID string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, owner+PeerPlanPath, bytes.NewReader(reqBody))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(HopHeader, "1")
	if c.self != "" {
		req.Header.Set(FromHeader, c.self)
	}
	if traceID != "" {
		req.Header.Set(traceHeader, traceID)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: peer %s answered %d", owner, resp.StatusCode)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxFillBody+1))
	if err != nil {
		return nil, err
	}
	if len(raw) == 0 || len(raw) > maxFillBody {
		return nil, fmt.Errorf("cluster: peer %s returned a %d-byte body", owner, len(raw))
	}
	return raw, nil
}

// BreakerStatus is one peer breaker's position for metrics and debug
// output.
type BreakerStatus struct {
	Peer  string `json:"peer"`
	State string `json:"state"`
	// Code is the numeric state (0 closed, 1 half-open, 2 open), the
	// /metrics gauge value.
	Code int `json:"code"`
}

// Stats is a point-in-time view of the client.
type Stats struct {
	Self         string          `json:"self"`
	Members      int             `json:"members"`
	VNodes       int             `json:"vnodes"`
	SelfFraction float64         `json:"self_fraction"`
	Fills        int64           `json:"fills"`
	FillFailures int64           `json:"fill_failures"`
	SelfOwned    int64           `json:"self_owned"`
	BreakerSkips int64           `json:"breaker_skips"`
	Hedges       int64           `json:"hedges"`
	Breakers     []BreakerStatus `json:"breakers"`
}

// Stats returns the current counters and breaker states.
func (c *Client) Stats() Stats {
	st := Stats{
		Self:         c.self,
		Members:      len(c.ring.Members()),
		VNodes:       c.ring.VNodes(),
		SelfFraction: c.ring.OwnedFraction(c.self),
		Fills:        c.fills.Load(),
		FillFailures: c.fillFailures.Load(),
		SelfOwned:    c.selfOwned.Load(),
		BreakerSkips: c.breakerSkips.Load(),
		Hedges:       c.hedges.Load(),
	}
	for peer, br := range c.breakers {
		s := br.State()
		st.Breakers = append(st.Breakers, BreakerStatus{Peer: peer, State: s.String(), Code: int(s)})
	}
	sort.Slice(st.Breakers, func(i, j int) bool { return st.Breakers[i].Peer < st.Breakers[j].Peer })
	return st
}

// Collect writes the client's fill counters, ring ownership per member,
// and breaker positions (0 closed, 1 half-open, 2 open) into snap, for a
// telemetry registry to read at snapshot time (Registry.Collect).
func (c *Client) Collect(snap telemetry.Snapshot) {
	st := c.Stats()
	cnt, g := snap.Counters, snap.Gauges
	cnt["cluster.peer_fill.hits"] = st.Fills
	cnt["cluster.peer_fill.failures"] = st.FillFailures
	cnt["cluster.peer_fill.breaker_open"] = st.BreakerSkips
	cnt["cluster.peer_fill.hedges"] = st.Hedges
	g["cluster.ring.members"] = float64(st.Members)
	g["cluster.ring.self_fraction"] = st.SelfFraction
	for _, m := range c.ring.Members() {
		g["cluster.ring.owned_fraction."+m] = c.ring.OwnedFraction(m)
	}
	g["cluster.peer_fill.fills"] = float64(st.Fills)
	g["cluster.peer_fill.fill_failures"] = float64(st.FillFailures)
	g["cluster.peer_fill.self_owned"] = float64(st.SelfOwned)
	g["cluster.peer_fill.breaker_skips"] = float64(st.BreakerSkips)
	g["cluster.peer_fill.hedged"] = float64(st.Hedges)
	for _, b := range st.Breakers {
		g["cluster.breaker."+b.Peer] = float64(b.Code)
	}
}

// MemberName canonicalizes a replica spec to its member name: a base
// URL without a trailing slash, defaulting the scheme to http. Replicas
// must agree on member names exactly for their rings to agree, so every
// boundary (flags, portfiles) funnels through this.
func MemberName(s string) string {
	s = strings.TrimSpace(s)
	s = strings.TrimSuffix(s, "/")
	if s == "" {
		return ""
	}
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	return s
}
