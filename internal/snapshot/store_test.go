package snapshot

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/daemon"
	"avfs/internal/sim"
	"avfs/internal/workload"
)

// sampleState builds a real mid-run session state so the round trips
// exercise the full nested payload, not a toy struct.
func sampleState(t *testing.T, seconds float64) *SessionState {
	t.Helper()
	m := sim.New(chip.XGene3Spec())
	d := daemon.New(m, daemon.DefaultConfig())
	d.Attach()
	if _, err := m.Submit(workload.MustByName("CG"), 8); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(workload.MustByName("lbm"), 1); err != nil {
		t.Fatal(err)
	}
	m.RunFor(seconds)
	ds, err := d.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	return &SessionState{Model: "xgene3", Policy: "optimal", Machine: m.CaptureState(), Daemon: ds}
}

// oneFile returns the single snapshot file in dir.
func oneFile(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(names) != 1 {
		t.Fatalf("want exactly one snapshot file in %s, got %v (%v)", dir, names, err)
	}
	return names[0]
}

func TestStoreRoundTrip(t *testing.T) {
	st := sampleState(t, 15)
	s := NewStore("")

	id, err := s.Put(st)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if len(id) != 64 || strings.ToLower(id) != id {
		t.Fatalf("id %q is not lowercase sha256 hex", id)
	}

	got, ok := s.Get(id)
	if !ok {
		t.Fatal("Get missed a just-put snapshot")
	}
	wantRaw, _ := json.Marshal(st)
	gotRaw, _ := json.Marshal(got)
	if string(wantRaw) != string(gotRaw) {
		t.Fatal("round-tripped state differs from the original")
	}

	// Same state → same address; the second put is a dedup no-op.
	id2, err := s.Put(st)
	if err != nil || id2 != id {
		t.Fatalf("re-Put = %q, %v; want %q", id2, err, id)
	}
	if fills := s.cas.Misses(); fills != 1 {
		t.Errorf("stored %d payloads, want 1 (dedup)", fills)
	}

	// Different state → different address.
	id3, err := s.Put(sampleState(t, 25))
	if err != nil || id3 == id {
		t.Fatalf("distinct state mapped to the same id %q (err %v)", id3, err)
	}

	if _, ok := s.Get("0000"); ok {
		t.Error("Get resolved a bogus id")
	}
}

// TestDecodeIgnoresCoalescingKey: a payload that still carries
// the removed machine "coalescing" flag decodes to the same state, which
// restores.
func TestDecodeIgnoresCoalescingKey(t *testing.T) {
	st := sampleState(t, 5)
	_, payload, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	stray := strings.Replace(string(payload), `"machine":{`, `"machine":{"coalescing":false,`, 1)
	if stray == string(payload) {
		t.Fatal("precondition: the payload has no machine object")
	}
	got, err := Decode([]byte(stray))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if _, again, err := Encode(got); err != nil || string(again) != string(payload) {
		t.Fatalf("decoded state re-encodes differently (%v)", err)
	}
	if _, err := sim.RestoreMachine(chip.XGene3Spec(), got.Machine); err != nil {
		t.Fatalf("restore: %v", err)
	}
}

func TestStoreDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	st := sampleState(t, 10)

	s1 := NewStore(dir)
	id, err := s1.Put(st)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	path := oneFile(t, dir)

	// A fresh store over the same directory resolves the id from disk.
	s2 := NewStore(dir)
	got, ok := s2.Get(id)
	if !ok {
		t.Fatal("fresh store missed the persisted snapshot")
	}
	if got.Model != st.Model || got.Policy != st.Policy ||
		got.Machine.Ticks != st.Machine.Ticks {
		t.Fatalf("persisted state differs: %+v", got)
	}
	// The load promoted it to the memory tier: a corrupted file no longer
	// matters for this store instance.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(id); !ok {
		t.Error("promoted snapshot lost after disk removal")
	}
}

// TestStoreLoadFailuresAreMisses: every way a disk file can be wrong is a
// plain miss — never an error, never a corrupted state handed back.
func TestStoreLoadFailuresAreMisses(t *testing.T) {
	dir := t.TempDir()
	st := sampleState(t, 10)
	id, err := NewStore(dir).Put(st)
	if err != nil {
		t.Fatal(err)
	}
	path := oneFile(t, dir)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Helper()
		if err := os.WriteFile(path, mutate(append([]byte(nil), pristine...)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := NewStore(dir).Get(id); ok {
			t.Errorf("%s: corrupted file resolved as a hit", name)
		}
	}

	corrupt("truncated", func(b []byte) []byte { return b[:len(b)/2] })
	corrupt("not json", func(b []byte) []byte { return []byte("%!") })
	corrupt("flipped payload byte", func(b []byte) []byte {
		// Flip a byte inside the state payload: the envelope still parses
		// but the content hash no longer matches the id.
		i := len(b) / 2
		b[i] ^= 0x01
		return b
	})
	envelopeField := func(field, value string) func([]byte) []byte {
		return func(b []byte) []byte {
			var f map[string]json.RawMessage
			if err := json.Unmarshal(b, &f); err != nil {
				t.Fatal(err)
			}
			f[field] = json.RawMessage(value)
			out, _ := json.Marshal(f)
			return out
		}
	}
	corrupt("version skew", envelopeField("version", `"snap-v0"`))
	corrupt("id mismatch", envelopeField("key", `"`+strings.Repeat("ab", 32)+`"`))

	// Restore the pristine bytes: the file resolves again, proving the
	// misses above came from the mutations and nothing else.
	if err := os.WriteFile(path, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := NewStore(dir).Get(id); !ok {
		t.Error("pristine file no longer resolves")
	}
}

func TestStoreMemoryOnly(t *testing.T) {
	s := NewStore("")
	id, err := s.Put(sampleState(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(id); !ok {
		t.Fatal("memory-only store missed its own snapshot")
	}
	if _, ok := NewStore("").Get(id); ok {
		t.Fatal("a different memory-only store resolved the id")
	}
}

// TestStoreSharesDecodedState: a resident snapshot is the state Put was
// given, served without allocating; the memory tier keeps no encoded
// copy; and the disk mirror holds exactly the envelope of Encode's
// payload.
func TestStoreSharesDecodedState(t *testing.T) {
	dir := t.TempDir()
	st := sampleState(t, 5)
	s := NewStore(dir)
	id, err := s.Put(st)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(id); !ok || got != st {
		t.Fatalf("Get = %p, %v; want the put state %p", got, ok, st)
	}
	if n := testing.AllocsPerRun(20, func() { s.Get(id) }); n != 0 {
		t.Errorf("Get of a resident id allocates %v times, want 0", n)
	}
	v, _, err := s.cas.Get(id, func() (*stored, error) { return nil, errNotFound })
	if err != nil || v.payload != nil {
		t.Errorf("memory tier keeps %d payload bytes (%v), want none", len(v.payload), err)
	}

	_, payload, err := Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(struct {
		Version string          `json:"version"`
		Key     string          `json:"key"`
		Payload json.RawMessage `json:"payload"`
	}{Version, id, payload})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(oneFile(t, dir)); err != nil || string(got) != string(want) {
		t.Errorf("disk envelope differs from the encoded payload's (%v)", err)
	}
}
