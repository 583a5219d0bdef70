package snapshot

import (
	"encoding/json"
	"errors"

	"avfs/internal/castore"
	"avfs/internal/telemetry"
)

// errNotFound is the fill of a lookup: an id neither tier holds.
var errNotFound = errors.New("snapshot: not found")

// Store holds snapshots in memory and, when given a directory, mirrors
// them to disk so forks survive server restarts. All methods are safe for
// concurrent use.
type Store struct {
	cas *castore.Store[json.RawMessage]
	// hBytes observes every Put's payload size once Instrument ran.
	hBytes *telemetry.Histogram
}

// Instrument registers the store's payload-size histogram on a telemetry
// registry. Call it before the first Put.
func (s *Store) Instrument(reg *telemetry.Registry) {
	s.hBytes = reg.Histogram("avfs_snapshot_bytes", "Encoded size of each snapshot stored, in bytes.",
		[]float64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20})
}

// NewStore creates a store. dir may be empty for memory-only operation;
// a non-empty dir is created lazily on the first Put.
func NewStore(dir string) *Store {
	return &Store{cas: castore.New(dir, Version, func(id string, payload json.RawMessage) bool {
		return idOf(payload) == id
	})}
}

// Put stores a session state and returns its content address. The disk
// write is best-effort: a failed mirror (read-only disk, full volume)
// degrades durability, not correctness, since the in-memory tier already
// holds the snapshot.
func (s *Store) Put(st *SessionState) (string, error) {
	id, payload, err := Encode(st)
	if err != nil {
		return "", err
	}
	if s.hBytes != nil {
		s.hBytes.Observe(float64(len(payload)))
	}
	// The only error is a concurrent Get's not-found for this id, handed to
	// the Put that waited on it; the next round stores the payload.
	for {
		if _, _, err := s.cas.Get(id, func() (json.RawMessage, error) { return payload, nil }); err == nil {
			return id, nil
		}
	}
}

// Get resolves a snapshot by id, checking the memory tier first and then
// the disk mirror. The returned state is a fresh copy; mutating it never
// affects the stored snapshot. A payload without its machine or daemon
// state (a planted disk file can carry a matching id) is a miss.
func (s *Store) Get(id string) (*SessionState, bool) {
	payload, _, err := s.cas.Get(id, func() (json.RawMessage, error) { return nil, errNotFound })
	if err != nil {
		return nil, false
	}
	st, err := Decode(payload)
	return st, err == nil && st.Machine != nil && st.Daemon != nil
}
