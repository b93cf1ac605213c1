package plancache

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"looppart/internal/obs"
)

// Group deduplicates concurrent work by key: while a call for a key is in
// flight, further Do calls for the same key wait for its result (of type
// V, shared by every caller) instead of running fn again. Unlike a bare mutex, waiters honor their contexts —
// a caller whose context expires leaves without canceling the flight, so
// the search still completes and (via fn's side effects) lands in the
// cache for the next request.
//
// For request-scoped tracing, each flight remembers the trace ID of the
// request that started it (the owner): Do returns it, so a coalesced
// waiter's span tree can link to the trace that actually ran the search.
// Live flights are observable through Flights() for /debug/cache.
type Group[V any] struct {
	mu     sync.Mutex
	calls  map[string]*flight[V]
	dedups atomic.Int64
}

type flight[V any] struct {
	done       chan struct{}
	val        V
	err        error
	ownerTrace string
	started    time.Time
	waiters    atomic.Int32
}

// Do runs fn for key, collapsing concurrent duplicates onto one
// execution. shared reports whether this caller joined an existing flight
// rather than starting one; ownerTrace is the flight owner's trace ID
// (obs.TraceID of the starting caller's context, "" when untraced). fn
// runs on its own goroutine detached from any caller's context.
func (g *Group[V]) Do(ctx context.Context, key string, fn func() (V, error)) (val V, shared bool, ownerTrace string, err error) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = make(map[string]*flight[V])
	}
	f, ok := g.calls[key]
	if ok {
		f.waiters.Add(1)
		g.mu.Unlock()
		g.dedups.Add(1)
		defer f.waiters.Add(-1)
		select {
		case <-f.done:
			return f.val, true, f.ownerTrace, f.err
		case <-ctx.Done():
			return val, true, f.ownerTrace, ctx.Err()
		}
	}
	f = &flight[V]{
		done:       make(chan struct{}),
		ownerTrace: obs.TraceID(ctx),
		started:    time.Now(),
	}
	g.calls[key] = f
	g.mu.Unlock()

	go func() {
		f.val, f.err = fn()
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(f.done)
	}()

	select {
	case <-f.done:
		return f.val, false, f.ownerTrace, f.err
	case <-ctx.Done():
		return val, false, f.ownerTrace, ctx.Err()
	}
}

// Dedups returns how many Do calls joined an existing flight.
func (g *Group[V]) Dedups() int64 { return g.dedups.Load() }

// FlightInfo describes one in-flight call for the debug endpoints.
type FlightInfo struct {
	Key        string `json:"key"`
	OwnerTrace string `json:"owner_trace,omitempty"`
	// Waiters counts callers currently blocked on this flight beyond the
	// owner.
	Waiters int   `json:"waiters"`
	AgeNs   int64 `json:"age_ns"`
}

// Flights snapshots the live flights, sorted by key.
func (g *Group[V]) Flights() []FlightInfo {
	g.mu.Lock()
	out := make([]FlightInfo, 0, len(g.calls))
	for key, f := range g.calls {
		out = append(out, FlightInfo{
			Key:        key,
			OwnerTrace: f.ownerTrace,
			Waiters:    int(f.waiters.Load()),
			AgeNs:      time.Since(f.started).Nanoseconds(),
		})
	}
	g.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
