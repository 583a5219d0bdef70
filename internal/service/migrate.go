package service

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"avfs/api"
	"avfs/client"
	"avfs/internal/snapshot"
)

// This file is the node side of drain-to-peer migration (ROADMAP item 2:
// horizontal scale-out). A migration is snapshot → ship → restore:
// the source captures the session's full state (PR 7's content-addressed
// snapshot), POSTs it to the target's /v1/cluster/import, and deletes
// the local copy once the target acknowledges. Replay determinism makes
// the restored session bit-identical to one that never moved — the
// migration equality suite pins it.
//
// It also hosts the node end of the cluster power-budget coordinator:
// the router partitions a global watt budget across nodes proportional
// to demand, each node partitions its share across sessions the same
// way, and the per-session caps apply through the PowerCap governor.

// shipClient carries migration payloads to peers through the wire
// client, so a peer's wire error comes back as an *api.Error with its
// code, status and Retry-After intact (conflict, draining and full
// semantics survive the hop). Migrations are node-to-node on a trusted
// network; the timeout bounds a hung peer.
var shipClient = &http.Client{Timeout: 30 * time.Second}

// ImportSession restores a migrated session under its original identity.
// The shipped payload's content address is verified against SnapshotID
// (when given) before anything is decoded, so a corrupted ship is
// rejected; a duplicate ID fails with ErrConflict.
func (f *Fleet) ImportSession(req api.ImportRequest) (api.Session, error) {
	if req.Session == "" {
		return api.Session{}, fmt.Errorf("%w: import needs a session id", ErrInvalidRequest)
	}
	if err := validSessionID(req.Session); err != nil {
		return api.Session{}, err
	}
	if len(req.State) == 0 {
		return api.Session{}, fmt.Errorf("%w: import needs snapshot state", ErrInvalidRequest)
	}
	if req.SnapshotID != "" && snapshot.ID(req.State) != req.SnapshotID {
		return api.Session{}, fmt.Errorf("%w: shipped state does not match snapshot id %s",
			ErrInvalidRequest, req.SnapshotID)
	}
	st, err := snapshot.Decode(req.State)
	if err != nil {
		return api.Session{}, fmt.Errorf("%w: %v", ErrInvalidRequest, err)
	}
	now := f.cfg.Clock()
	f.mu.Lock()
	err = f.admitLocked(req.Session)
	f.mu.Unlock()
	if err != nil {
		return api.Session{}, err
	}

	s, err := restoreSession(f.baseCtx, req.Session, st, req.TTLSeconds, f.cfg.SessionTTL, now, f.sessionWiring())
	if err != nil {
		return api.Session{}, err
	}
	ws, err := f.publish(s, now)
	if err != nil {
		return api.Session{}, err
	}
	// Keep the shipped snapshot resolvable locally (fork/what-if against
	// the migrated-in state); a store failure only loses that provenance.
	_, _ = f.snaps.Put(st)
	return ws, nil
}

// MigrateSession snapshots a local session, ships it to the target peer
// and deletes the local copy once the peer acknowledges. A session with
// a run in flight refuses with ErrConflict (drain first, or retry when
// the run completes); mutations arriving mid-ship are refused the same
// way, so nothing can land between the shipped state and the deletion.
// On any failure the session stays here, untouched and writable again.
// A target_url that is not an absolute http(s) URL is refused before
// anything is captured.
func (f *Fleet) MigrateSession(ctx context.Context, req api.MigrateRequest) (api.Migration, error) {
	if req.Session == "" || req.TargetURL == "" {
		return api.Migration{}, fmt.Errorf("%w: migrate needs session and target_url", ErrInvalidRequest)
	}
	if u, err := url.Parse(req.TargetURL); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return api.Migration{}, fmt.Errorf("%w: target_url %q is not an http(s) URL with a host", ErrInvalidRequest, req.TargetURL)
	}
	s, err := f.lookup(req.Session)
	if err != nil {
		return api.Migration{}, err
	}
	start := time.Now()
	s.mu.Lock()
	if s.migrating {
		s.mu.Unlock()
		return api.Migration{}, fmt.Errorf("%w: migration already in flight", ErrConflict)
	}
	if n := s.activeJobs; n > 0 {
		s.mu.Unlock()
		return api.Migration{}, fmt.Errorf("%w: %d runs in flight", ErrConflict, n)
	}
	st, err := s.captureStateLocked()
	if err != nil {
		s.mu.Unlock()
		return api.Migration{}, err
	}
	s.migrating = true
	ttl := s.ttl
	s.mu.Unlock()
	abort := func(err error) (api.Migration, error) {
		s.mu.Lock()
		s.migrating = false
		s.mu.Unlock()
		return api.Migration{}, err
	}

	snapID, payload, err := snapshot.Encode(st)
	if err != nil {
		return abort(err)
	}
	if _, err := client.New(req.TargetURL, shipClient).ImportSession(ctx, api.ImportRequest{
		Session:    req.Session,
		TTLSeconds: ttl.Seconds(),
		SnapshotID: snapID,
		State:      payload,
	}); err != nil {
		return abort(fmt.Errorf("migrate %s to %s: %w", req.Session, req.TargetURL, err))
	}
	// The peer owns the session now; drop the local copy. Delete cancels
	// the session context (no runs are in flight — migrating gated them).
	_ = f.Delete(req.Session)
	return api.Migration{
		Session:    req.Session,
		From:       f.cfg.NodeName,
		To:         req.TargetName,
		SnapshotID: snapID,
		DurationMS: float64(time.Since(start).Nanoseconds()) / 1e6,
	}, nil
}

// SessionDemands reports every live session's average power draw,
// ordered by ID — the per-session demand vector the node agent
// partitions its watt share over.
func (f *Fleet) SessionDemands() (ids []string, demands []float64) {
	ids = f.SessionIDs()
	demands = make([]float64, len(ids))
	for i, id := range ids {
		s, err := f.lookup(id)
		if err != nil {
			continue // deleted between the two reads; zero demand
		}
		s.mu.Lock()
		demands[i] = s.m.Meter.AveragePower()
		s.mu.Unlock()
	}
	return ids, demands
}

// SetSessionPowerCap applies one session's share of the node's power
// budget through the same governor path as PUT /policy with
// power_cap_watts; w <= 0 lifts the cap. A migrating session is left
// alone (its cap state already shipped).
func (f *Fleet) SetSessionPowerCap(id string, w float64) error {
	s, err := f.lookup(id)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writableLocked(); err != nil {
		return err
	}
	s.stack.SetPowerCap(w)
	return nil
}
