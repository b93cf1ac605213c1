package plancache

import (
	"sync"
	"sync/atomic"

	"looppart/internal/telemetry"
)

// DefaultHotRebuildEvery is the request cadence at which the service
// refreshes the hot tier when none is configured.
const DefaultHotRebuildEvery = 512

// HotTier pins the hottest plans above the LRU in an immutable,
// lock-free snapshot: a Get is one atomic pointer load and one read of
// a map that is never written after publication, so the fleet's most
// skewed keys — the "millions of users asking for the same ten plans"
// case — never touch the LRU mutex at all.
//
// The snapshot is rebuilt out of band (Rebuild) from the LRU's per-entry
// hit counts; between rebuilds it serves possibly stale membership but
// never stale bytes: wire Cache.OnInvalidate to Invalidate and an entry
// the LRU replaced with different bytes or evicted is tombstoned in the
// live snapshot immediately — Get treats it as a miss and the request
// falls through to the LRU (or a fresh search). Hits observed by the
// tier are fed back into the LRU at rebuild time, so pinned entries keep
// their recency and hit ranking even though serving them bypasses the
// LRU entirely.
type HotTier struct {
	capacity int
	snap     atomic.Pointer[hotSnap]

	// writeMu serializes snapshot publication (Rebuild) with
	// tombstoning (Invalidate). Gets never take it. The ordering
	// argument: an LRU change completes before its Invalidate call, so
	// either Rebuild's TopEntries scan already saw the new LRU state, or
	// Invalidate runs after the publication it raced with and tombstones
	// the stale entry in the snapshot that carried it.
	writeMu sync.Mutex

	hits         atomic.Int64
	misses       atomic.Int64
	rebuilds     atomic.Int64
	invalidation atomic.Int64
}

// hotSnap is one immutable snapshot. The map is written only before the
// snapshot is published via atomic pointer swap; after publication the
// only mutation is the per-entry atomic hit counters.
type hotSnap struct {
	entries map[string]*hotEntry
}

// hotEntry is one pinned plan.
type hotEntry struct {
	raw     []byte
	decoded any
	hits    atomic.Int64
	// dead tombstones an entry whose LRU counterpart was replaced or
	// evicted: the pinned bytes may no longer be what the cache holds,
	// so Get must miss instead of serving them.
	dead atomic.Bool
}

// NewHotTier returns a tier pinning up to capacity entries, or nil when
// capacity <= 0 — the disabled state; all methods are nil-safe.
func NewHotTier(capacity int) *HotTier {
	if capacity <= 0 {
		return nil
	}
	h := &HotTier{capacity: capacity}
	h.snap.Store(&hotSnap{entries: map[string]*hotEntry{}})
	return h
}

// Get returns the pinned bytes and decoded form for key. No locks: an
// atomic snapshot load, a map read, an atomic hit count.
func (h *HotTier) Get(key string) ([]byte, any, bool) {
	if h == nil {
		return nil, nil, false
	}
	e, ok := h.snap.Load().entries[key]
	if !ok || e.dead.Load() {
		h.misses.Add(1)
		return nil, nil, false
	}
	e.hits.Add(1)
	h.hits.Add(1)
	return e.raw, e.decoded, true
}

// Len returns the current snapshot's entry count.
func (h *HotTier) Len() int {
	if h == nil {
		return 0
	}
	return len(h.snap.Load().entries)
}

// Rebuild publishes a fresh snapshot of c's hottest entries. The hits
// the outgoing snapshot absorbed are credited back to the LRU first, so
// pinned entries stay hot in the LRU's own ranking and recency order
// instead of starving toward eviction. Concurrent rebuilds coalesce:
// the loser returns immediately, Gets never block.
func (h *HotTier) Rebuild(c *Cache) {
	if h == nil || c == nil {
		return
	}
	if !h.writeMu.TryLock() {
		return
	}
	defer h.writeMu.Unlock()
	old := h.snap.Load()
	for key, e := range old.entries {
		if n := e.hits.Load(); n > 0 {
			c.AddHits(key, n)
		}
	}
	top := c.TopEntries(h.capacity)
	next := &hotSnap{entries: make(map[string]*hotEntry, len(top))}
	for _, te := range top {
		if te.Hits <= 0 {
			// Never-served entries (e.g. store warm loads) are not hot;
			// pinning them would just shadow the LRU with dead weight.
			continue
		}
		next.entries[te.Key] = &hotEntry{raw: te.Raw, decoded: te.Decoded}
	}
	h.snap.Store(next)
	h.rebuilds.Add(1)
}

// Invalidate tombstones key's pinned entry, if any: the LRU replaced or
// evicted its counterpart, so the snapshot's bytes can no longer be
// trusted to match the cache. Wire this to Cache.OnInvalidate. Serialized
// with Rebuild so a publication racing with an LRU change cannot revive
// stale bytes — whichever runs second sees the other's effect.
func (h *HotTier) Invalidate(key string) {
	if h == nil {
		return
	}
	h.writeMu.Lock()
	defer h.writeMu.Unlock()
	if e, ok := h.snap.Load().entries[key]; ok && !e.dead.Swap(true) {
		h.invalidation.Add(1)
	}
}

// HotStats is a point-in-time view of the tier.
type HotStats struct {
	Capacity      int   `json:"capacity"`
	Entries       int   `json:"entries"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Rebuilds      int64 `json:"rebuilds"`
	Invalidations int64 `json:"invalidations"`
}

// Stats returns the current counters (zero value on nil).
func (h *HotTier) Stats() HotStats {
	if h == nil {
		return HotStats{}
	}
	return HotStats{
		Capacity:      h.capacity,
		Entries:       h.Len(),
		Hits:          h.hits.Load(),
		Misses:        h.misses.Load(),
		Rebuilds:      h.rebuilds.Load(),
		Invalidations: h.invalidation.Load(),
	}
}

// Collect writes the tier's counters into snap, for a telemetry registry
// to read at snapshot time (Registry.Collect); no-op on nil.
func (h *HotTier) Collect(snap telemetry.Snapshot) {
	if h == nil {
		return
	}
	st := h.Stats()
	snap.Counters["plancache.hot.rebuilds"] = st.Rebuilds
	snap.Counters["plancache.hot.invalidations"] = st.Invalidations
	snap.Gauges["plancache.hot.entries"] = float64(st.Entries)
	snap.Gauges["plancache.hot.hits"] = float64(st.Hits)
	snap.Gauges["plancache.hot.rebuilds"] = float64(st.Rebuilds)
}
