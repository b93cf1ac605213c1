package plancache

import (
	"bytes"
	"container/list"
	"sort"
	"sync"

	"looppart/internal/telemetry"
)

// DefaultMaxBytes is the cache budget used when none is configured.
const DefaultMaxBytes = 64 << 20

// entryOverhead approximates the per-entry bookkeeping cost (list element,
// map bucket share, headers) charged against the byte budget on top of the
// key and value lengths.
const entryOverhead = 128

// Cache is a byte-bounded LRU of encoded plans, safe for concurrent use.
// Values are treated as immutable by both sides: PutDecoded keeps the
// given slice, GetDecoded returns it without copying. An entry carries a
// decoded form of the same value alongside the bytes (nil when the
// caller has none), sharing the entry's LRU position and lifetime, so
// read paths skip re-parsing the bytes they already hold.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	hits      int64
	misses    int64
	evictions int64

	// onInvalidate, when set, is called (outside the lock) for every key
	// whose entry left the cache or changed bytes: eviction, or a replace
	// whose new value differs from the old. A tier snapshotting cache
	// contents (HotTier) hooks this so it can never serve bytes the LRU
	// no longer holds.
	onInvalidate func(key string)
}

type entry struct {
	key string
	val []byte
	// decoded, when non-nil, is a parsed form of val with the same
	// immutability contract. It rides the entry: evicted together,
	// replaced together.
	decoded any
	hits    int64
}

// NewCache returns a cache bounded at maxBytes (DefaultMaxBytes when
// maxBytes <= 0).
func NewCache(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// GetDecoded returns the cached bytes for key and the decoded value
// stored alongside them (nil if PutDecoded was given none), marking the
// entry most recently used. Both are shared with the cache and must be
// treated as immutable.
func (c *Cache) GetDecoded(key string) ([]byte, any, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	e := el.Value.(*entry)
	e.hits++
	val, dec := e.val, e.decoded
	c.mu.Unlock()
	return val, dec, true
}

// PutDecoded inserts or replaces the value for key, with decoded — a
// parsed form of val, or nil — for GetDecoded to return without
// re-parsing, and evicts from the LRU tail until the byte budget holds.
// A value that alone exceeds the budget is not cached. Replacing an
// entry replaces its decoded value too, so the two can never skew. The
// decoded value is not charged against the byte budget: it mirrors val's
// information, and the budget meters the canonical bytes.
func (c *Cache) PutDecoded(key string, val []byte, decoded any) {
	size := int64(len(key)+len(val)) + entryOverhead
	if size > c.maxBytes {
		return
	}
	// Keys whose bytes left the cache under the lock; the hook runs after
	// unlock (it may take its own lock) but before PutDecoded returns, so
	// a caller that completed a replace never races its own invalidation.
	var stale []string
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry)
		if c.onInvalidate != nil && !bytes.Equal(e.val, val) {
			stale = append(stale, key)
		}
		c.bytes += int64(len(val)) - int64(len(e.val))
		e.val = val
		e.decoded = decoded
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry{key: key, val: val, decoded: decoded})
		c.bytes += size
	}
	for c.bytes > c.maxBytes {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.bytes -= int64(len(e.key)+len(e.val)) + entryOverhead
		c.evictions++
		if c.onInvalidate != nil {
			stale = append(stale, e.key)
		}
	}
	c.mu.Unlock()
	for _, k := range stale {
		c.onInvalidate(k)
	}
}

// OnInvalidate registers fn to be called for every key whose entry is
// evicted or replaced with different bytes. Set once, before the cache
// is shared between goroutines; fn must not call back into the cache.
func (c *Cache) OnInvalidate(fn func(key string)) { c.onInvalidate = fn }

// Stats is a point-in-time view of the cache counters.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
}

// Stats returns the current counters and occupancy.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
	}
}

// Collect writes the cache's counters and occupancy into snap, for a
// telemetry registry to read at snapshot time (Registry.Collect).
func (c *Cache) Collect(snap telemetry.Snapshot) {
	st := c.Stats()
	snap.Counters["plancache.hits"] = st.Hits
	snap.Counters["plancache.misses"] = st.Misses
	snap.Counters["plancache.evictions"] = st.Evictions
	snap.Gauges["plancache.entries"] = float64(st.Entries)
	snap.Gauges["plancache.bytes"] = float64(st.Bytes)
	snap.Gauges["plancache.hit_ratio"] = st.HitRatio()
}

// HitRatio returns hits / (hits+misses), or 0 before any lookup.
func (s Stats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// KeyStat is one cached entry's hot-key accounting: how often the entry
// was served since admission and how many bytes it occupies. Hits are
// per-entry — eviction and re-admission reset them, which is the number
// a hot-key tier would actually shard on.
type KeyStat struct {
	Key   string `json:"key"`
	Hits  int64  `json:"hits"`
	Bytes int64  `json:"bytes"`
}

// AddHits credits key's entry with n extra hits and refreshes its
// recency — the hot tier's rebuild-time feedback, so entries served
// lock-free above the LRU neither lose their hit ranking nor age toward
// eviction. A key no longer cached is a no-op. The hits go to the
// entry's per-key count only, not the cache-wide hit counter: the tier
// reports its own serves.
func (c *Cache) AddHits(key string, n int64) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).hits += n
		c.ll.MoveToFront(el)
	}
	c.mu.Unlock()
}

// TopEntry is one cached entry with its value, for hot-tier rebuilds:
// unlike Get, collecting it does not promote the entry or count a hit.
type TopEntry struct {
	Key     string
	Raw     []byte
	Decoded any
	Hits    int64
}

// TopEntries returns the k most-hit entries with their (immutable)
// values, most-hit first with the TopKeys tie-break. One O(n log n)
// scan under the lock, amortized across a rebuild interval.
func (c *Cache) TopEntries(k int) []TopEntry {
	if k <= 0 {
		return nil
	}
	c.mu.Lock()
	all := make([]TopEntry, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		all = append(all, TopEntry{Key: e.key, Raw: e.val, Decoded: e.decoded, Hits: e.hits})
	}
	c.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Hits != all[j].Hits {
			return all[i].Hits > all[j].Hits
		}
		return all[i].Key < all[j].Key
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// TopKeys returns the k most-hit entries, most-hit first (ties broken by
// key for a deterministic dump). An O(n log n) scan under the lock: this
// feeds the /debug/cache endpoint, not a serving path.
func (c *Cache) TopKeys(k int) []KeyStat {
	if k <= 0 {
		return nil
	}
	c.mu.Lock()
	all := make([]KeyStat, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		all = append(all, KeyStat{Key: e.key, Hits: e.hits, Bytes: int64(len(e.key)+len(e.val)) + entryOverhead})
	}
	c.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Hits != all[j].Hits {
			return all[i].Hits > all[j].Hits
		}
		return all[i].Key < all[j].Key
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}
