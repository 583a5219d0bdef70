//go:build unix

package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestPutAfterRacingMiss: a Put that waits on a concurrent lookup of the
// same id, which then misses, still stores its snapshot. A FIFO at the
// id's file holds the lookup inside its disk read until the Put is parked
// behind it.
func TestPutAfterRacingMiss(t *testing.T) {
	dir := t.TempDir()
	st := sampleState(t, 5)
	id, _, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(id))
	fifo := filepath.Join(dir, hex.EncodeToString(sum[:])+".json")
	if err := syscall.Mkfifo(fifo, 0o644); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	s := NewStore(dir)

	found := make(chan bool, 1)
	go func() {
		_, ok := s.Get(id)
		found <- ok
	}()
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	waitFor("the lookup to lead", func() bool { return s.cas.Entries() == 1 })

	type putResult struct {
		id  string
		err error
	}
	put := make(chan putResult, 1)
	go func() {
		id, err := s.Put(st)
		put <- putResult{id, err}
	}()
	waitFor("the Put to park", func() bool { return s.cas.InflightWaits() == 1 })

	// Release the lookup with an empty read; the path is gone before the
	// Put's next round looks at it.
	w, err := os.OpenFile(fifo, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(fifo); err != nil {
		t.Fatal(err)
	}
	w.Close()

	if <-found {
		t.Error("lookup resolved an empty file")
	}
	if r := <-put; r.err != nil || r.id != id {
		t.Fatalf("Put = %q, %v; want %q", r.id, r.err, id)
	}
	if _, ok := NewStore(dir).Get(id); !ok {
		t.Error("the Put's snapshot was not persisted")
	}
}
