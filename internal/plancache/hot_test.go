package plancache

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

func TestHotTierNilIsDisabled(t *testing.T) {
	var h *HotTier
	if _, _, ok := h.Get("k"); ok {
		t.Fatal("nil tier served a hit")
	}
	h.Rebuild(NewCache(0)) // must not panic
	if st := h.Stats(); st != (HotStats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
	if NewHotTier(0) != nil {
		t.Fatal("capacity 0 should build the nil tier")
	}
}

func TestHotTierPinsHottestServedEntries(t *testing.T) {
	c := NewCache(0)
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("k%d", i)
		c.PutDecoded(key, []byte(fmt.Sprintf("v%d", i)), i)
		for j := 0; j <= i; j++ {
			c.GetDecoded(key) // k7 hottest, k0 coolest
		}
	}
	c.PutDecoded("cold", []byte("never served"), nil)

	h := NewHotTier(3)
	h.Rebuild(c)
	if got := h.Len(); got != 3 {
		t.Fatalf("tier entries = %d, want 3", got)
	}
	for _, key := range []string{"k7", "k6", "k5"} {
		raw, dec, ok := h.Get(key)
		if !ok {
			t.Fatalf("hottest key %s missing from the tier", key)
		}
		if string(raw) == "" || dec == nil {
			t.Fatalf("tier entry %s lost value or decoded form", key)
		}
	}
	if _, _, ok := h.Get("k0"); ok {
		t.Fatal("cool key pinned over hotter ones")
	}
	if _, _, ok := h.Get("cold"); ok {
		t.Fatal("never-served entry pinned")
	}
}

func TestHotTierFeedsHitsBackToLRU(t *testing.T) {
	c := NewCache(0)
	c.PutDecoded("hot", []byte("v"), nil)
	c.GetDecoded("hot")
	h := NewHotTier(1)
	h.Rebuild(c)
	for i := 0; i < 10; i++ {
		if _, _, ok := h.Get("hot"); !ok {
			t.Fatal("pinned key missing")
		}
	}
	h.Rebuild(c)
	top := c.TopKeys(1)
	if len(top) != 1 || top[0].Hits != 11 {
		t.Fatalf("LRU hits after feedback = %+v, want 11 (1 direct + 10 tier)", top)
	}
}

func TestHotTierConcurrentGetAndRebuild(t *testing.T) {
	c := NewCache(0)
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("k%d", i)
		c.PutDecoded(key, []byte(key), nil)
		c.GetDecoded(key)
	}
	h := NewHotTier(16)
	h.Rebuild(c)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("k%d", (i+g)%32)
				if raw, _, ok := h.Get(key); ok && string(raw) != key {
					t.Errorf("tier served wrong bytes for %s: %q", key, raw)
					return
				}
				if i%100 == 0 {
					h.Rebuild(c)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := h.Stats(); st.Hits == 0 || st.Rebuilds == 0 {
		t.Fatalf("stats = %+v, want hits and rebuilds", st)
	}
}

func TestCacheAddHitsRefreshesRecencyAndRanking(t *testing.T) {
	c := NewCache(3*(128+2+1) + 10) // room for ~3 tiny entries
	c.PutDecoded("a", []byte("1"), nil)
	c.PutDecoded("b", []byte("1"), nil)
	c.AddHits("a", 5)
	c.AddHits("missing", 5) // no-op
	// "a" was refreshed after "b": inserting two more should evict "b"
	// first.
	c.PutDecoded("c", []byte("1"), nil)
	c.PutDecoded("d", []byte("1"), nil)
	if _, _, ok := c.GetDecoded("a"); !ok {
		t.Fatal("AddHits did not refresh recency: a evicted before b")
	}
	if _, _, ok := c.GetDecoded("b"); ok {
		t.Fatal("b should have been evicted as least recent")
	}
	top := c.TopEntries(1)
	if len(top) != 1 || top[0].Key != "a" || top[0].Hits < 5 {
		t.Fatalf("top entry = %+v, want a with >= 5 hits", top)
	}
}

// TestHotTierInvalidatedOnReplace: a hot key whose LRU entry is replaced
// with different bytes must stop serving from the snapshot immediately —
// stale pinned bytes until the next rebuild was the bug.
func TestHotTierInvalidatedOnReplace(t *testing.T) {
	c := NewCache(0)
	h := NewHotTier(2)
	c.OnInvalidate(h.Invalidate)

	c.PutDecoded("k", []byte("v1"), "d1")
	c.GetDecoded("k")
	h.Rebuild(c)
	if raw, _, ok := h.Get("k"); !ok || string(raw) != "v1" {
		t.Fatalf("tier should serve v1 before the replace, got %q ok=%v", raw, ok)
	}

	c.PutDecoded("k", []byte("v2"), "d2")
	if raw, _, ok := h.Get("k"); ok {
		t.Fatalf("tier served %q after the LRU replaced the entry", raw)
	}
	if st := h.Stats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}

	// Same-bytes re-puts (the canonical-content common case) must NOT
	// tombstone: the pinned bytes still match the cache.
	c.PutDecoded("k2", []byte("w"), nil)
	c.GetDecoded("k2")
	h.Rebuild(c)
	c.PutDecoded("k2", []byte("w"), nil)
	if _, _, ok := h.Get("k2"); !ok {
		t.Fatal("identical-bytes replace tombstoned a still-valid hot entry")
	}

	// The next rebuild re-pins the fresh bytes.
	c.GetDecoded("k")
	h.Rebuild(c)
	if raw, _, ok := h.Get("k"); !ok || string(raw) != "v2" {
		t.Fatalf("rebuilt tier = %q ok=%v, want v2", raw, ok)
	}
}

// TestHotTierInvalidatedOnEvict: a hot key evicted from the LRU must
// stop serving from the snapshot immediately.
func TestHotTierInvalidatedOnEvict(t *testing.T) {
	// Budget fits roughly two entries (key+val+overhead ≈ 132 each).
	c := NewCache(300)
	h := NewHotTier(4)
	c.OnInvalidate(h.Invalidate)

	c.PutDecoded("a", []byte("va"), nil)
	c.GetDecoded("a")
	h.Rebuild(c)
	if _, _, ok := h.Get("a"); !ok {
		t.Fatal("tier should serve a before the eviction")
	}

	// Two more entries push "a" (the LRU tail) out.
	c.PutDecoded("b", []byte("vb"), nil)
	c.PutDecoded("c", []byte("vc"), nil)
	if _, _, ok := c.GetDecoded("a"); ok {
		t.Fatal("test setup: a was not evicted")
	}
	if raw, _, ok := h.Get("a"); ok {
		t.Fatalf("tier served %q for a key the LRU evicted", raw)
	}
}

// TestHotTierReplaceRace hammers one key with byte-changing replaces
// while readers serve from the hot tier: a reader must never observe a
// version older than one fully replaced before its Get began. Run with
// -race.
func TestHotTierReplaceRace(t *testing.T) {
	c := NewCache(0)
	h := NewHotTier(2)
	c.OnInvalidate(h.Invalidate)

	var lastPut atomic.Int64
	version := func(raw []byte) int64 {
		n, err := strconv.ParseInt(string(raw), 10, 64)
		if err != nil {
			t.Errorf("unparseable hot value %q", raw)
		}
		return n
	}

	c.PutDecoded("k", []byte("0"), nil)
	c.GetDecoded("k")
	h.Rebuild(c)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				before := lastPut.Load()
				if raw, _, ok := h.Get("k"); ok {
					if v := version(raw); v < before {
						t.Errorf("hot tier served version %d after version %d was fully replaced", v, before)
						return
					}
				}
			}
		}()
	}
	for i := int64(1); i <= 2000; i++ {
		c.PutDecoded("k", []byte(strconv.FormatInt(i, 10)), nil)
		lastPut.Store(i)
		if i%100 == 0 {
			c.GetDecoded("k")
			h.Rebuild(c)
		}
	}
	close(stop)
	wg.Wait()
}
