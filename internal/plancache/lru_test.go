package plancache

import (
	"bytes"
	"fmt"
	"testing"
)

func TestCacheGetPut(t *testing.T) {
	c := NewCache(1 << 20)
	if _, _, ok := c.GetDecoded("k"); ok {
		t.Fatal("hit on empty cache")
	}
	c.PutDecoded("k", []byte("v1"), nil)
	v, _, ok := c.GetDecoded("k")
	if !ok || !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("got %q, %v", v, ok)
	}
	c.PutDecoded("k", []byte("v2"), nil)
	v, _, _ = c.GetDecoded("k")
	if !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("update not visible: %q", v)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	// Room for roughly three entries of ~256 bytes each.
	val := make([]byte, 128)
	per := int64(1+len(val)) + entryOverhead
	c := NewCache(3 * per)
	for i := 0; i < 3; i++ {
		c.PutDecoded(fmt.Sprintf("%d", i), val, nil)
	}
	c.GetDecoded("0") // refresh 0: the LRU victim becomes 1
	c.PutDecoded("3", val, nil)
	if _, _, ok := c.GetDecoded("1"); ok {
		t.Error("LRU entry 1 survived eviction")
	}
	for _, k := range []string{"0", "2", "3"} {
		if _, _, ok := c.GetDecoded(k); !ok {
			t.Errorf("entry %s evicted out of LRU order", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Bytes > s.MaxBytes {
		t.Errorf("stats = %+v", s)
	}
}

func TestCacheRejectsOversizeValue(t *testing.T) {
	c := NewCache(256)
	c.PutDecoded("big", make([]byte, 1024), nil)
	if _, _, ok := c.GetDecoded("big"); ok {
		t.Error("value larger than the whole budget was cached")
	}
	if s := c.Stats(); s.Bytes != 0 || s.Entries != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCacheByteAccounting(t *testing.T) {
	c := NewCache(1 << 20)
	c.PutDecoded("a", make([]byte, 100), nil)
	c.PutDecoded("b", make([]byte, 200), nil)
	want := int64(1+100) + entryOverhead + int64(1+200) + entryOverhead
	if s := c.Stats(); s.Bytes != want {
		t.Errorf("bytes = %d, want %d", s.Bytes, want)
	}
	c.PutDecoded("a", make([]byte, 50), nil) // shrink in place
	want -= 50
	if s := c.Stats(); s.Bytes != want {
		t.Errorf("bytes after update = %d, want %d", s.Bytes, want)
	}
}

func TestHitRatio(t *testing.T) {
	if r := (Stats{}).HitRatio(); r != 0 {
		t.Errorf("empty ratio = %v", r)
	}
	if r := (Stats{Hits: 3, Misses: 1}).HitRatio(); r != 0.75 {
		t.Errorf("ratio = %v", r)
	}
}

func TestCacheDecodedRidesEntry(t *testing.T) {
	c := NewCache(1 << 20)
	type decoded struct{ N int }

	// PutDecoded stores both forms; GetDecoded returns both.
	c.PutDecoded("k", []byte("v1"), &decoded{N: 1})
	v, d, ok := c.GetDecoded("k")
	if !ok || !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("GetDecoded = %q, %v", v, ok)
	}
	if dd, _ := d.(*decoded); dd == nil || dd.N != 1 {
		t.Fatalf("decoded = %#v, want &{1}", d)
	}
	// Replacing with a nil decoded value must drop the stale one: the two
	// forms can never skew.
	c.PutDecoded("k", []byte("v2"), nil)
	v, d, ok = c.GetDecoded("k")
	if !ok || !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("after replace: %q, %v", v, ok)
	}
	if d != nil {
		t.Fatalf("stale decoded value survived a nil-decoded replace: %#v", d)
	}

	// And replacing via PutDecoded installs the new pair.
	c.PutDecoded("k", []byte("v3"), &decoded{N: 3})
	v, d, _ = c.GetDecoded("k")
	if !bytes.Equal(v, []byte("v3")) {
		t.Fatalf("after PutDecoded: %q", v)
	}
	if dd, _ := d.(*decoded); dd == nil || dd.N != 3 {
		t.Fatalf("decoded = %#v, want &{3}", d)
	}
}

func TestCacheDecodedEvictsWithEntry(t *testing.T) {
	// Budget sized for one small entry (see TestCacheEvictsLRU).
	c := NewCache(2 * (int64(len("k1")+len("xxxx")) + entryOverhead))
	c.PutDecoded("k1", []byte("xxxx"), "d1")
	c.PutDecoded("k2", []byte("xxxx"), "d2")
	c.PutDecoded("k3", []byte("xxxx"), "d3")
	if _, _, ok := c.GetDecoded("k1"); ok {
		t.Fatal("k1 should have been evicted")
	}
	if _, d, ok := c.GetDecoded("k3"); !ok || d != "d3" {
		t.Fatalf("k3 = %v, %v", d, ok)
	}
}
