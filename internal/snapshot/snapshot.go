// Package snapshot implements versioned, content-addressed storage for
// full session state — the (Machine, Daemon, Baseline) triple a fleet
// session is made of. A snapshot is the unit behind the control plane's
// fork and what-if primitives (ROADMAP item 1): capture once, branch N
// deterministic children from it.
//
// The store is a thin wrapper over internal/castore, like the Vmin and
// surrogate stores: the id is the sha256 of the versioned payload and is
// the cache key, the memory tier holds the decoded state, and the disk
// mirror holds the payload in castore's {version, key, payload} envelope.
// A snapshot is an immutable value: it is encoded once, when it is put,
// and decoded once, when a disk file is loaded; every Get shares it
// read-only. Every load failure — missing file, corruption, version skew,
// id mismatch — is a miss, never an error: a loaded payload must hash
// back to its id, so a corrupted or tampered file simply fails to
// resolve.
package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"avfs/internal/daemon"
	"avfs/internal/sched"
	"avfs/internal/sim"
)

// Version tags the serialization format. Restoring a snapshot written by
// a different format version is a miss (the state layout or the
// simulator's numeric trajectory may have changed). It is hashed into
// every id, so changing it changes every content address. snap-v4
// carries finished processes as value records (sim.Record, in
// MachineState.Finished) and only live processes with their threads; a
// snap-v3 payload carries every retained process with its threads, so it
// must miss.
const Version = "snap-v4"

// SessionState is the complete serializable state of one fleet session:
// the machine and both controller stacks, plus the session-level knobs
// needed to rebuild an equivalent session around them.
type SessionState struct {
	// Model is the session's chip model name (see chip.ParseModel).
	Model string `json:"model"`
	// Policy is the session's active Table IV policy name.
	Policy string `json:"policy"`

	Machine  *sim.MachineState   `json:"machine"`
	Daemon   *daemon.State       `json:"daemon"`
	Baseline sched.BaselineState `json:"baseline"`

	// PowerCap carries the session's power-cap governor, when one is
	// attached, so a capped session migrates bit-identically. Omitted
	// when nil.
	PowerCap *sched.PowerCapState `json:"power_cap,omitempty"`
}

// Encode marshals a session state and derives its content address.
func Encode(st *SessionState) (id string, payload []byte, err error) {
	payload, err = json.Marshal(st)
	if err != nil {
		return "", nil, fmt.Errorf("snapshot: encode: %w", err)
	}
	return idOf(payload), payload, nil
}

// Decode unmarshals a canonical payload (the inverse of Encode). It is
// the ingestion path for migrations: the receiving node decodes the
// shipped state after verifying its content address with ID.
func Decode(payload []byte) (*SessionState, error) {
	st := new(SessionState)
	if err := json.Unmarshal(payload, st); err != nil {
		return nil, fmt.Errorf("snapshot: decode: %w", err)
	}
	return st, nil
}

// ID derives the content address of a canonical payload without
// decoding it, so an importer can verify a shipped snapshot end to end.
func ID(payload []byte) string { return idOf(payload) }

// idOf hashes the version tag and payload into the content address.
func idOf(payload []byte) string {
	h := sha256.New()
	h.Write([]byte(Version))
	h.Write([]byte{'\n'})
	h.Write(payload)
	return hex.EncodeToString(h.Sum(nil))
}
