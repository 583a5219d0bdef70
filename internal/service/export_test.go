package service

import (
	"testing"

	"avfs/internal/snapshot"
)

// StepPerTick makes session id's machine commit one tick at a time: a
// hook whose boundary is always now ends every batch. Tests use it where
// a run must take wall time for the test to act on it mid-run.
func StepPerTick(t testing.TB, f *Fleet, id string) {
	t.Helper()
	s, err := f.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.m.OnTickBounded(nil, s.m.Now)
	s.mu.Unlock()
}

// CaptureSession returns session id's complete captured state, as a
// snapshot of it would hold it.
func CaptureSession(t testing.TB, f *Fleet, id string) *snapshot.SessionState {
	t.Helper()
	s, err := f.lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.captureStateLocked()
	if err != nil {
		t.Fatal(err)
	}
	return st
}
