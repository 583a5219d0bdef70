package castore_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"avfs/internal/castore"
	"avfs/internal/chip"
	"avfs/internal/clock"
	"avfs/internal/daemon"
	"avfs/internal/sim"
	"avfs/internal/snapshot"
	"avfs/internal/surrogate"
	"avfs/internal/vmin"
	"avfs/internal/vmin/store"
	"avfs/internal/workload"
)

// goldenSnapshotID is the content address of goldenSession. It pins the
// snapshot encoding and snap-v4 hashing: forks and migrations between
// nodes of different builds rely on identical states hashing identically.
const goldenSnapshotID = "48efff3633e45c57082d0dc5e825a1d09443a59b27933ecc5bd2521186453179"

// goldenSession is a fixed X-Gene 2 session: the Optimal daemon over CG on
// four cores and lbm on one, ten simulated seconds in.
func goldenSession(t testing.TB) *snapshot.SessionState {
	t.Helper()
	m := sim.New(chip.XGene2Spec())
	d := daemon.New(m, daemon.DefaultConfig())
	d.Attach()
	m.MustSubmit(workload.MustByName("CG"), 4)
	m.MustSubmit(workload.MustByName("lbm"), 1)
	m.RunFor(10)
	ds, err := d.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	return &snapshot.SessionState{Model: "xgene2", Policy: "optimal", Machine: m.CaptureState(), Daemon: ds}
}

func TestGoldenSnapshotID(t *testing.T) {
	st := goldenSession(t)
	id, _, err := snapshot.Encode(st)
	if err != nil {
		t.Fatal(err)
	}
	if id != goldenSnapshotID {
		t.Errorf("snapshot id = %s, want %s", id, goldenSnapshotID)
	}
	if id, err := snapshot.NewStore(t.TempDir()).Put(st); err != nil || id != goldenSnapshotID {
		t.Errorf("Store.Put = %s, %v; want %s", id, err, goldenSnapshotID)
	}
}

// surrogateMarker tags the Samples of one policy cell in the surrogate
// leg's envelope: Fit never produces it, so a model carrying it was
// served from the file.
const surrogateMarker = -7

// leg is one typed wrapper over castore, with a valid envelope for one of
// its keys.
type leg struct {
	name string
	file string // base name of the key's file
	env  map[string]json.RawMessage
	// parent is the same payload in the wrapper's envelope format before
	// castore ({version,key,dataset}, {version,id,state}, {key,model}).
	parent map[string]json.RawMessage
	// get runs a Get on a fresh store over dir, fails t if the value
	// breaks the wrapper's contract (a value that neither came from its
	// fill nor passed its load check), and reports whether it was served
	// from the file.
	get func(t *testing.T, dir string) (fromDisk bool)
}

// writeOnce runs a real Get into a fresh directory and returns the one
// file it wrote, decoded.
func writeOnce(t testing.TB, get func(dir string)) (string, map[string]json.RawMessage) {
	t.Helper()
	dir := t.TempDir()
	get(dir)
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(names) != 1 {
		t.Fatalf("want one file, got %v (%v)", names, err)
	}
	raw, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]json.RawMessage
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	return filepath.Base(names[0]), env
}

func marshal(t testing.TB, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func legs(t testing.TB) []leg {
	ch := &vmin.Characterizer{SafeTrials: 20, UnsafeTrials: 10}
	cfg := &vmin.Config{Spec: chip.XGene2Spec(), FreqClass: clock.FullSpeed, Cores: []chip.CoreID{0, 1}}
	want := ch.Characterize(cfg)
	vminFile, vminEnv := writeOnce(t, func(dir string) { store.New(dir).Get(ch, cfg) })

	st := goldenSession(t)
	snapFile, snapEnv := writeOnce(t, func(dir string) {
		if _, err := snapshot.NewStore(dir).Put(st); err != nil {
			t.Fatal(err)
		}
	})

	spec := chip.XGene2Spec()
	var fitted *surrogate.Model
	surFile, surEnv := writeOnce(t, func(dir string) {
		m, err := surrogate.NewStore(dir).Get(spec, surrogate.FitConfig{})
		if err != nil {
			t.Fatal(err)
		}
		fitted = m
	})
	marked := *fitted
	marked.Policy[0][0].Samples = surrogateMarker
	surEnv["payload"] = marshal(t, &marked)

	return []leg{{
		name: "vmin",
		file: vminFile,
		env:  vminEnv,
		parent: map[string]json.RawMessage{
			"version": vminEnv["version"], "key": vminEnv["key"], "dataset": vminEnv["payload"],
		},
		get: func(t *testing.T, dir string) bool {
			cz, src := store.New(dir).Get(ch, cfg)
			if src != castore.Disk && !reflect.DeepEqual(cz, want) {
				t.Errorf("vmin: %v result differs from the sweep", src)
			}
			return src == castore.Disk
		},
	}, {
		name: "snapshot",
		file: snapFile,
		env:  snapEnv,
		parent: map[string]json.RawMessage{
			"version": snapEnv["version"], "id": snapEnv["key"], "state": snapEnv["payload"],
		},
		get: func(t *testing.T, dir string) bool {
			got, ok := snapshot.NewStore(dir).Get(goldenSnapshotID)
			if ok {
				if id, _, err := snapshot.Encode(got); err != nil || id != goldenSnapshotID {
					t.Errorf("snapshot: served state hashes to %s (%v), want %s", id, err, goldenSnapshotID)
				}
			}
			return ok
		},
	}, {
		name: "surrogate",
		file: surFile,
		env:  surEnv,
		parent: map[string]json.RawMessage{
			"key": surEnv["key"], "model": surEnv["payload"],
		},
		get: func(t *testing.T, dir string) bool {
			m, err := surrogate.NewStore(dir).Get(spec, surrogate.FitConfig{})
			if err != nil {
				t.Fatalf("surrogate: %v", err)
			}
			if m.Version != surrogate.Version || m.Chip != spec.Name || m.ChipModel != int(spec.Model) {
				t.Errorf("surrogate: served a model for %s/%d at %q", m.Chip, m.ChipModel, m.Version)
			}
			return m.Policy[0][0].Samples == surrogateMarker
		},
	}}
}

// TestParentEnvelopesAreMisses: a file each wrapper wrote before the
// stores shared castore, found under the key's file name, is a clean
// miss; the valid envelope beside it is a hit.
func TestParentEnvelopesAreMisses(t *testing.T) {
	for _, l := range legs(t) {
		for name, env := range map[string]map[string]json.RawMessage{"parent": l.parent, "valid": l.env} {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, l.file), marshal(t, env), 0o644); err != nil {
				t.Fatal(err)
			}
			if fromDisk := l.get(t, dir); fromDisk != (name == "valid") {
				t.Errorf("%s: %s envelope served from disk = %v", l.name, name, fromDisk)
			}
		}
	}
}

// FuzzLoad puts arbitrary bytes at a key's file and runs the owning
// wrapper's Get: it never panics, and either fills or serves a value that
// passed the wrapper's load check.
func FuzzLoad(f *testing.F) {
	ls := legs(f)
	for i, l := range ls {
		valid := marshal(f, l.env)
		with := func(field, value string) []byte {
			env := map[string]json.RawMessage{}
			for k, v := range l.env {
				env[k] = v
			}
			env[field] = json.RawMessage(value)
			return marshal(f, env)
		}
		f.Add(uint8(i), valid)
		f.Add(uint8(i), valid[:len(valid)/2])
		f.Add(uint8(i), with("version", `"v0"`))
		f.Add(uint8(i), with("key", `"other"`))
		f.Add(uint8(i), marshal(f, l.parent))
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		l := ls[int(which)%len(ls)]
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, l.file), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if !l.get(t, dir) {
			return
		}
		// Served from disk: the bytes must have been an envelope for this
		// key and version, with a payload.
		var got, want envelope
		if json.Unmarshal(data, &got) != nil || json.Unmarshal(marshal(t, l.env), &want) != nil ||
			got.Version != want.Version || got.Key != want.Key || len(got.Payload) == 0 {
			t.Errorf("%s: served a value from a file that is not its envelope: %q", l.name, data)
		}
	})
}

// envelope mirrors castore's file format.
type envelope struct {
	Version string          `json:"version"`
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
}
