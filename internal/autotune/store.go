package autotune

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"looppart/internal/telemetry"
)

// StoreSchema versions the on-disk entry format; entries written under a
// different schema are invisible (not quarantined — an old binary's
// entries are valid for that binary).
const StoreSchema = 1

// quarantineDir is where corrupt entries are moved, preserving the
// evidence without poisoning future scans.
const quarantineDir = ".quarantine"

// Store is a disk-backed, content-addressed store of tuned plans. Each
// entry is one JSON file named by the hash of (store schema, machine
// fingerprint, canonical plan key), so a store directory can hold plans
// for many machines and schema generations side by side; reads and scans
// see only the entries of this store's fingerprint and schema.
//
// Writes are atomic (temp file + rename in the same directory), so a
// crash mid-write leaves at worst an ignored temp file, never a torn
// entry. Entries that fail to parse or whose integrity sum does not match
// are quarantined: moved into .quarantine/ and counted, never deleted and
// never served.
type Store struct {
	dir string
	fp  Fingerprint

	mu          sync.Mutex
	puts        int64
	gets        int64
	getHits     int64
	quarantined int64
}

// storeEntry is the on-disk envelope. Sum covers the value bytes so a
// partially corrupted file cannot be served as a plan.
type storeEntry struct {
	Schema      int             `json:"schema"`
	Fingerprint Fingerprint     `json:"fingerprint"`
	Key         string          `json:"key"`
	Sum         string          `json:"sum"`
	Value       json.RawMessage `json:"value"`
}

// OpenStore opens (creating if needed) the tuned-plan store rooted at dir
// for the given machine fingerprint.
func OpenStore(dir string, fp Fingerprint) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("autotune: store directory must not be empty")
	}
	if fp.Schema == 0 {
		fp = ModelFingerprint()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("autotune: open store: %w", err)
	}
	return &Store{dir: dir, fp: fp}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Fingerprint returns the machine fingerprint the store is keyed under.
func (s *Store) Fingerprint() Fingerprint { return s.fp }

// entryName returns the content-addressed filename for a canonical plan
// key under this store's fingerprint and schema.
func (s *Store) entryName(key string) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("store%d|%s|%s", StoreSchema, s.fp.ID(), key)))
	return hex.EncodeToString(h[:]) + ".json"
}

func valueSum(val []byte) string {
	h := sha256.Sum256(val)
	return hex.EncodeToString(h[:])
}

// Put persists val under the canonical plan key, atomically.
func (s *Store) Put(key string, val []byte) error {
	ent := storeEntry{
		Schema:      StoreSchema,
		Fingerprint: s.fp,
		Key:         key,
		Sum:         valueSum(val),
		Value:       json.RawMessage(val),
	}
	data, err := json.Marshal(ent)
	if err != nil {
		return fmt.Errorf("autotune: encode store entry: %w", err)
	}
	name := s.entryName(key)
	tmp, err := os.CreateTemp(s.dir, name+".tmp*")
	if err != nil {
		return fmt.Errorf("autotune: store put: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("autotune: store put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("autotune: store put: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		return fmt.Errorf("autotune: store put: %w", err)
	}
	s.mu.Lock()
	s.puts++
	s.mu.Unlock()
	return nil
}

// Get returns the stored value for the canonical plan key, or ok=false if
// absent. A present-but-corrupt entry is quarantined and reported absent.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	s.gets++
	s.mu.Unlock()
	name := s.entryName(key)
	val, ok := s.load(name, key)
	if ok {
		s.mu.Lock()
		s.getHits++
		s.mu.Unlock()
	}
	return val, ok
}

// load reads and validates one entry file. wantKey "" accepts any key
// (the scan path); otherwise the entry must match, since a hash filename
// could in principle collide or be hand-renamed.
func (s *Store) load(name, wantKey string) ([]byte, bool) {
	path := filepath.Join(s.dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	var ent storeEntry
	if err := json.Unmarshal(data, &ent); err != nil {
		s.quarantine(name, fmt.Sprintf("unparseable: %v", err))
		return nil, false
	}
	if ent.Schema != StoreSchema || ent.Fingerprint.ID() != s.fp.ID() {
		// Another generation's or machine's entry — not ours, not corrupt.
		return nil, false
	}
	if wantKey != "" && ent.Key != wantKey {
		s.quarantine(name, "key mismatch")
		return nil, false
	}
	if valueSum(ent.Value) != ent.Sum {
		s.quarantine(name, "integrity sum mismatch")
		return nil, false
	}
	return []byte(ent.Value), true
}

// quarantine moves a corrupt entry aside and counts it.
func (s *Store) quarantine(name, reason string) {
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		_ = os.Rename(filepath.Join(s.dir, name), filepath.Join(qdir, name))
	}
	s.mu.Lock()
	s.quarantined++
	s.mu.Unlock()
	telemetry.Active().Emit("autotune.store.quarantine", name, map[string]any{"reason": reason})
}

// Each calls fn for every valid entry of this store's fingerprint and
// schema, in directory order. Corrupt entries are quarantined as they are
// found; foreign entries are skipped. This is the daemon's warm-start
// path: each (key, value) can be fed straight into the in-memory LRU.
func (s *Store) Each(fn func(key string, val []byte)) error {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("autotune: store scan: %w", err)
	}
	for _, de := range names {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue // quarantine dir, temp files
		}
		path := filepath.Join(s.dir, de.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var ent storeEntry
		if err := json.Unmarshal(data, &ent); err != nil {
			s.quarantine(de.Name(), fmt.Sprintf("unparseable: %v", err))
			continue
		}
		if ent.Schema != StoreSchema || ent.Fingerprint.ID() != s.fp.ID() {
			continue
		}
		if valueSum(ent.Value) != ent.Sum {
			s.quarantine(de.Name(), "integrity sum mismatch")
			continue
		}
		fn(ent.Key, []byte(ent.Value))
	}
	return nil
}

// StoreStats is a point-in-time view of the store counters.
type StoreStats struct {
	Dir         string `json:"dir"`
	Fingerprint string `json:"fingerprint"`
	Entries     int    `json:"entries"`
	Puts        int64  `json:"puts"`
	Gets        int64  `json:"gets"`
	GetHits     int64  `json:"get_hits"`
	Quarantined int64  `json:"quarantined"`
}

// Stats counts this fingerprint's valid entries on disk plus the
// session's operation counters.
func (s *Store) Stats() StoreStats {
	entries := 0
	_ = s.Each(func(string, []byte) { entries++ })
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Dir:         s.dir,
		Fingerprint: s.fp.ID(),
		Entries:     entries,
		Puts:        s.puts,
		Gets:        s.gets,
		GetHits:     s.getHits,
		Quarantined: s.quarantined,
	}
}

// Collect writes the store's counters and entry count into snap, for a
// telemetry registry to read at snapshot time (Registry.Collect). The
// entry count scans the directory, so it costs one scan per snapshot.
func (s *Store) Collect(snap telemetry.Snapshot) {
	st := s.Stats()
	snap.Counters["autotune.store.puts"] = st.Puts
	snap.Counters["autotune.store.hits"] = st.GetHits
	snap.Counters["autotune.store.quarantined"] = st.Quarantined
	snap.Gauges["autotune.store.entries"] = float64(st.Entries)
	snap.Gauges["autotune.store.get_hits"] = float64(st.GetHits)
	snap.Gauges["autotune.store.quarantined_entries"] = float64(st.Quarantined)
}
