// Package castore is the one content-addressed cache behind every store
// of immutable derived data in the repository: Vmin characterizations
// (internal/vmin/store), session snapshots (internal/snapshot) and fitted
// surrogate models (internal/surrogate).
//
// A Store has two tiers. The in-process tier holds decoded values, so a
// repeat costs no JSON work, and collapses concurrent requests for one key
// onto a single fill (singleflight). The optional on-disk tier persists
// one file per key so the fill is paid once across process boundaries.
// The file is named hex(sha256(key)).json and holds one envelope,
// {"version","key","payload"}. Writes are best effort and atomic (temp
// file + rename), so a concurrent reader or a crash never observes a
// partial file. Anything unreadable, corrupt, written under another
// version or key, or rejected by the store's check is a miss, never an
// error.
package castore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Source reports which tier satisfied a Get.
type Source int

const (
	// Computed means the store ran the fill (a miss in both tiers).
	Computed Source = iota
	// Memory means the in-process tier had the value (including waiting
	// on an in-flight fill of the same key).
	Memory
	// Disk means the value was loaded from the store's directory.
	Disk
)

// String names the source.
func (s Source) String() string {
	switch s {
	case Computed:
		return "computed"
	case Memory:
		return "memory"
	case Disk:
		return "disk"
	default:
		return "unknown"
	}
}

// envelope is the on-disk file. Version and Key let a load prove the file
// was written by the same format version for the same key.
type envelope[P any] struct {
	Version string `json:"version"`
	Key     string `json:"key"`
	Payload P      `json:"payload"`
}

// entry is one in-process key: created by the first Get (the leader)
// before it fills, closed when the fill returns. Waiters block on done;
// ok=false means the leader panicked and waiters must fill for themselves.
type entry[V any] struct {
	done chan struct{}
	v    V
	err  error
	ok   bool
}

// Store is a two-tier, content-addressed cache of values of type V. All
// methods are safe for concurrent use. Construct with New.
type Store[V any] struct {
	dir     string // "" = in-process tier only
	version string
	check   func(key string, v V) bool

	mu      sync.Mutex
	entries map[string]*entry[V]

	hits          atomic.Int64 // memory-tier hits (incl. in-flight waits)
	diskHits      atomic.Int64
	misses        atomic.Int64
	inflightWaits atomic.Int64
}

// New builds a store. dir is the on-disk tier's directory ("" disables
// persistence); it is created lazily on the first write. version is
// written into every envelope and must match on load. check, when non-nil,
// vets a value decoded from disk against its key; a false return is a
// miss.
func New[V any](dir, version string, check func(key string, v V) bool) *Store[V] {
	return &Store[V]{dir: dir, version: version, check: check, entries: map[string]*entry[V]{}}
}

// Get returns the value for key, calling fill only if neither tier has
// it. Concurrent Gets of one key call fill once. A fill error is returned
// to the leader and every waiter and is not cached: the next Get fills
// again. If fill panics, the panic propagates to the leader, the entry is
// retired, and each waiter calls its own fill instead of deadlocking.
//
// The value is shared with every other caller of the key; callers must
// treat it as read-only.
func (s *Store[V]) Get(key string, fill func() (V, error)) (V, Source, error) {
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.mu.Unlock()
		select {
		case <-e.done:
		default:
			s.inflightWaits.Add(1)
			<-e.done
		}
		if !e.ok {
			// The fill this call deduplicated against panicked; reproduce
			// the failure (or result, if it was transient) on this caller's
			// own stack.
			v, err := fill()
			return v, Computed, err
		}
		if e.err != nil {
			return e.v, Computed, e.err
		}
		s.hits.Add(1)
		return e.v, Memory, nil
	}
	e := &entry[V]{done: make(chan struct{})}
	s.entries[key] = e
	s.mu.Unlock()

	if v, ok := s.load(key); ok {
		e.v, e.ok = v, true
		close(e.done)
		s.diskHits.Add(1)
		return v, Disk, nil
	}

	func() {
		defer func() {
			if !e.ok || e.err != nil {
				// A panic or an error: retire the entry before releasing
				// the waiters, so a later Get fills again.
				s.mu.Lock()
				delete(s.entries, key)
				s.mu.Unlock()
			}
			close(e.done)
		}()
		e.v, e.err = fill()
		e.ok = true
	}()
	s.misses.Add(1)
	if e.err == nil {
		s.save(key, e.v)
	}
	return e.v, Computed, e.err
}

// path is the content-addressed file of a key.
func (s *Store[V]) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+".json")
}

// load tries the on-disk tier. Every failure mode — no directory,
// unreadable file, truncated or corrupt JSON, a different version, a key
// collision, a missing payload or a failed check — is a miss.
func (s *Store[V]) load(key string) (V, bool) {
	var zero V
	if s.dir == "" {
		return zero, false
	}
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		return zero, false
	}
	// A missing or null payload leaves the pointer nil.
	var env envelope[*V]
	if json.Unmarshal(raw, &env) != nil || env.Version != s.version || env.Key != key || env.Payload == nil {
		return zero, false
	}
	if s.check != nil && !s.check(key, *env.Payload) {
		return zero, false
	}
	return *env.Payload, true
}

// save persists a value atomically: write to a temp file in the store's
// directory, then rename over the final name so readers only ever see
// complete files. Persistence is best effort — a read-only or full disk
// degrades the store to in-process caching, it does not fail the Get.
func (s *Store[V]) save(key string, v V) {
	if s.dir == "" {
		return
	}
	raw, err := json.Marshal(envelope[V]{Version: s.version, Key: key, Payload: v})
	if err != nil {
		return
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(s.dir, "castore-*.tmp")
	if err != nil {
		return
	}
	_, werr := tmp.Write(raw)
	if cerr := tmp.Close(); werr != nil || cerr != nil || os.Rename(tmp.Name(), s.path(key)) != nil {
		os.Remove(tmp.Name())
	}
}

// Hits returns memory-tier hits (including in-flight waits).
func (s *Store[V]) Hits() int64 { return s.hits.Load() }

// DiskHits returns values served from the store's directory.
func (s *Store[V]) DiskHits() int64 { return s.diskHits.Load() }

// Misses returns fills the store ran to completion (errors included).
func (s *Store[V]) Misses() int64 { return s.misses.Load() }

// InflightWaits returns Gets that blocked on another caller's in-flight
// fill of the same key.
func (s *Store[V]) InflightWaits() int64 { return s.inflightWaits.Load() }

// Entries returns the keys resident (or in flight) in the in-process tier.
func (s *Store[V]) Entries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
