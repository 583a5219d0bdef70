package castore

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFillErrorReachesEveryCaller: a failed fill is handed to the leader
// and every caller parked on it, is not cached, and the next Get fills
// again.
func TestFillErrorReachesEveryCaller(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	s := New[int](dir, "v1", nil)
	boom := errors.New("fill failed")
	release := make(chan struct{})
	var fills atomic.Int32
	failing := func() (int, error) {
		fills.Add(1)
		<-release
		return 0, boom
	}

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = s.Get("k", failing)
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.InflightWaits() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters parked", s.InflightWaits(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := fills.Load(); got != 1 {
		t.Fatalf("fill ran %d times, want 1", got)
	}
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("caller %d got %v, want the fill error", i, err)
		}
	}
	if s.Entries() != 0 || s.Hits() != 0 {
		t.Errorf("entries/hits = %d/%d after a failed fill, want 0/0", s.Entries(), s.Hits())
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*")); len(names) != 0 {
		t.Errorf("a failed fill was persisted: %v", names)
	}

	v, src, err := s.Get("k", func() (int, error) { return 42, nil })
	if err != nil || v != 42 || src != Computed {
		t.Fatalf("Get after a failed fill = %d, %v, %v; want 42, computed, nil", v, src, err)
	}
	if v, src, _ := s.Get("k", failing); v != 42 || src != Memory {
		t.Errorf("refilled value not cached: %d, %v", v, src)
	}
	if v, src, _ := New[int](dir, "v1", nil).Get("k", failing); v != 42 || src != Disk {
		t.Errorf("refilled value not persisted: %d, %v", v, src)
	}
}

// TestLoadRejects: every way a file can fail to prove itself is a miss
// that refills and heals the file.
func TestLoadRejects(t *testing.T) {
	dir := t.TempDir()
	even := func(_ string, v int) bool { return v%2 == 0 }
	if _, _, err := New(dir, "v1", even).Get("k", func() (int, error) { return 2, nil }); err != nil {
		t.Fatal(err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(names) != 1 {
		t.Fatalf("want one file, got %v", names)
	}
	for name, body := range map[string]string{
		"truncated":       `{"version":"v1","key":"k","payl`,
		"wrong version":   `{"version":"v0","key":"k","payload":2}`,
		"wrong key":       `{"version":"v1","key":"j","payload":2}`,
		"missing payload": `{"version":"v1","key":"k","dataset":2}`,
		"null payload":    `{"version":"v1","key":"k","payload":null}`,
		"wrong type":      `{"version":"v1","key":"k","payload":"2"}`,
		"failed check":    `{"version":"v1","key":"k","payload":3}`,
	} {
		if err := os.WriteFile(names[0], []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		v, src, err := New(dir, "v1", even).Get("k", func() (int, error) { return 4, nil })
		if err != nil || v != 4 || src != Computed {
			t.Errorf("%s: Get = %d, %v, %v; want a refill", name, v, src, err)
		}
		if v, src, _ := New(dir, "v1", even).Get("k", nil); v != 4 || src != Disk {
			t.Errorf("%s: refill did not heal the file: %d, %v", name, v, src)
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("temp-file debris left behind: %v", tmps)
	}
}
