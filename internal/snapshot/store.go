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
	cas *castore.Store[*stored]
	// hBytes observes every Put's payload size once Instrument ran.
	hBytes *telemetry.Histogram
}

// stored is one snapshot in the store: the decoded state every Get
// shares. payload is the canonical encoding a Put hands to the disk
// mirror, dropped once the Put returns, so a Put encodes once; id is the
// content address of the payload bytes a disk load read, for the load
// check.
type stored struct {
	st      *SessionState
	payload json.RawMessage
	id      string
}

// MarshalJSON writes the Put's canonical payload into the envelope.
func (v *stored) MarshalJSON() ([]byte, error) { return v.payload, nil }

// UnmarshalJSON decodes a disk payload once and hashes it as read.
func (v *stored) UnmarshalJSON(payload []byte) (err error) {
	v.id = idOf(payload)
	v.st, err = Decode(payload)
	return err
}

// Instrument registers the store's payload-size histogram and its
// memory-tier tallies on a telemetry registry. Call it before the first
// Put.
func (s *Store) Instrument(reg *telemetry.Registry) {
	s.hBytes = reg.Histogram("avfs_snapshot_bytes", "Encoded size of each snapshot stored, in bytes.",
		[]float64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20})
	reg.Gauge("avfs_snapshot_entries", "Snapshots resident in the in-process store tier.",
		func() float64 { return float64(s.cas.Entries()) })
	reg.CounterFunc("avfs_snapshot_misses_total",
		"Snapshot store fills: new snapshots stored, plus lookups of ids neither tier held.",
		func() float64 { return float64(s.cas.Misses()) })
}

// NewStore creates a store. dir may be empty for memory-only operation;
// a non-empty dir is created lazily on the first Put.
func NewStore(dir string) *Store {
	return &Store{cas: castore.New(dir, Version, func(id string, v *stored) bool {
		return v.id == id && complete(v.st)
	})}
}

// complete reports whether a state carries both halves a restore needs
// (a planted disk file or a hand-built Put can lack one).
func complete(st *SessionState) bool { return st != nil && st.Machine != nil && st.Daemon != nil }

// Put stores a session state and returns its content address. The store
// keeps st itself: the caller must not modify it afterwards. The disk
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
	v := &stored{st: st, payload: payload}
	// The only error is a concurrent Get's not-found for this id, handed to
	// the Put that waited on it; the next round stores the state.
	for {
		if _, _, err := s.cas.Get(id, func() (*stored, error) { return v, nil }); err == nil {
			v.payload = nil
			return id, nil
		}
	}
}

// Get resolves a snapshot by id, checking the memory tier first and then
// the disk mirror. The returned state is shared with every other caller
// and must be treated as read-only. A state without its machine or daemon
// half is a miss.
func (s *Store) Get(id string) (*SessionState, bool) {
	v, _, err := s.cas.Get(id, func() (*stored, error) { return nil, errNotFound })
	if err != nil || !complete(v.st) {
		return nil, false
	}
	return v.st, true
}
