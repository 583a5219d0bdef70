package store

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"avfs/internal/castore"
	"avfs/internal/chip"
	"avfs/internal/clock"
	"avfs/internal/telemetry"
	"avfs/internal/vmin"
	"avfs/internal/workload"
)

// fastCh keeps sweeps cheap; results stay deterministic per (config, salt).
var fastCh = &vmin.Characterizer{SafeTrials: 100, UnsafeTrials: 40}

func cores(n int) []chip.CoreID {
	ids := make([]chip.CoreID, n)
	for i := range ids {
		ids[i] = chip.CoreID(i)
	}
	return ids
}

func testConfig(bench string) *vmin.Config {
	c := &vmin.Config{
		Spec:      chip.XGene2Spec(),
		FreqClass: clock.FullSpeed,
		Cores:     cores(4),
	}
	if bench != "" {
		c.Bench = workload.MustByName(bench)
	}
	return c
}

// oneDiskFile returns the single dataset file in dir.
func oneDiskFile(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(names) != 1 {
		t.Fatalf("want exactly one dataset file in %s, got %v (%v)", dir, names, err)
	}
	return names[0]
}

func TestGetMatchesDirectCharacterize(t *testing.T) {
	st := New("")
	for _, bench := range []string{"CG", "milc", ""} {
		cfg := testConfig(bench)
		want := fastCh.Characterize(cfg)

		got, src := st.Get(fastCh, cfg)
		if src != castore.Computed {
			t.Fatalf("first Get source = %v, want computed", src)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: computed result != direct Characterize", bench)
		}
		again, src := st.Get(fastCh, cfg)
		if src != castore.Memory {
			t.Fatalf("second Get source = %v, want memory", src)
		}
		if !reflect.DeepEqual(again, want) {
			t.Fatalf("%q: cached result != direct Characterize", bench)
		}
		// Mutating a served copy must not poison the cache.
		if len(again.Levels) > 0 {
			again.Levels[0].Fails = -777
		}
		clean, _ := st.Get(fastCh, cfg)
		if !reflect.DeepEqual(clean, want) {
			t.Fatalf("%q: cache was corrupted through a served slice", bench)
		}
	}
	if st.Misses() != 3 || st.Hits() != 6 {
		t.Errorf("misses/hits = %d/%d, want 3/6", st.Misses(), st.Hits())
	}
}

func TestNilStoreComputes(t *testing.T) {
	var st *Store
	cfg := testConfig("EP")
	got, src := st.Get(fastCh, cfg)
	if src != castore.Computed {
		t.Fatalf("source = %v, want computed", src)
	}
	if !reflect.DeepEqual(got, fastCh.Characterize(cfg)) {
		t.Fatal("nil store must behave like a direct Characterize")
	}
}

func TestKeyCanonicalization(t *testing.T) {
	base := testConfig("CG")
	perm := *base
	perm.Cores = []chip.CoreID{3, 1, 0, 2}
	if KeyFor(fastCh, base) != KeyFor(fastCh, &perm) {
		t.Error("core order must not change the key (core *set* identity)")
	}

	distinct := []Key{KeyFor(fastCh, base)}
	add := func(label string, k Key) {
		for _, seen := range distinct {
			if k == seen {
				t.Errorf("%s did not change the key", label)
				return
			}
		}
		distinct = append(distinct, k)
	}

	other := *base
	other.Bench = workload.MustByName("milc")
	add("bench", KeyFor(fastCh, &other))
	nilBench := *base
	nilBench.Bench = nil
	add("nil bench", KeyFor(fastCh, &nilBench))
	fc := *base
	fc.FreqClass = clock.HalfSpeed
	add("freq class", KeyFor(fastCh, &fc))
	fewer := *base
	fewer.Cores = cores(2)
	add("core set", KeyFor(fastCh, &fewer))
	spec := *base
	moved := *base.Spec
	moved.NominalMV -= 30
	spec.Spec = &moved
	add("nominal voltage", KeyFor(fastCh, &spec))
	offs := *base
	offs.PMDOffsets = make([]chip.Millivolts, base.Spec.PMDs())
	add("PMD offsets", KeyFor(fastCh, &offs))
	add("salt", KeyFor(&vmin.Characterizer{Salt: 1, SafeTrials: 100, UnsafeTrials: 40}, base))
	add("trial counts", KeyFor(&vmin.Characterizer{SafeTrials: 101, UnsafeTrials: 40}, base))
	add("default trials", KeyFor(&vmin.Characterizer{}, base))
}

func TestKeyRejectsNegativeTrials(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("KeyFor must panic on negative trial counts")
		}
	}()
	KeyFor(&vmin.Characterizer{SafeTrials: -1}, testConfig("CG"))
}

func TestSingleflightDeduplicates(t *testing.T) {
	const n = 16
	st := New("")
	release := make(chan struct{})
	var computes atomic.Int32
	st.compute = func(ch *vmin.Characterizer, c *vmin.Config) vmin.Characterization {
		computes.Add(1)
		<-release
		return ch.Characterize(c)
	}
	cfg := testConfig("CG")
	want := fastCh.Characterize(cfg)

	var wg sync.WaitGroup
	results := make([]vmin.Characterization, n)
	sources := make([]castore.Source, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], sources[i] = st.Get(fastCh, cfg)
		}(i)
	}
	// Exactly one goroutine leads; wait for the other n-1 to be parked on
	// its in-flight entry before releasing the computation.
	deadline := time.Now().Add(10 * time.Second)
	for st.InflightWaits() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d waiters parked", st.InflightWaits(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times, want 1", got)
	}
	var computed, memory int
	for i := range results {
		if !reflect.DeepEqual(results[i], want) {
			t.Fatalf("goroutine %d got a divergent result", i)
		}
		switch sources[i] {
		case castore.Computed:
			computed++
		case castore.Memory:
			memory++
		}
	}
	if computed != 1 || memory != n-1 {
		t.Errorf("sources: %d computed / %d memory, want 1/%d", computed, memory, n-1)
	}
	if st.Misses() != 1 || st.Hits() != n-1 {
		t.Errorf("misses/hits = %d/%d, want 1/%d", st.Misses(), st.Hits(), n-1)
	}
}

func TestSingleflightDistinctKeysComputeOncePerKey(t *testing.T) {
	st := New("")
	var computes atomic.Int32
	st.compute = func(ch *vmin.Characterizer, c *vmin.Config) vmin.Characterization {
		computes.Add(1)
		return ch.Characterize(c)
	}
	benches := []string{"CG", "EP", "FT", "milc", "gcc", "mcf", "lbm", "namd"}
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for _, b := range benches {
			wg.Add(1)
			go func(b string) {
				defer wg.Done()
				st.Get(fastCh, testConfig(b))
			}(b)
		}
	}
	wg.Wait()
	if got := computes.Load(); got != int32(len(benches)) {
		t.Errorf("computed %d times for %d unique keys", got, len(benches))
	}
	if st.Entries() != len(benches) {
		t.Errorf("resident entries = %d, want %d", st.Entries(), len(benches))
	}
}

func TestLeaderPanicReleasesWaiters(t *testing.T) {
	st := New("")
	entered := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int32
	st.compute = func(ch *vmin.Characterizer, c *vmin.Config) vmin.Characterization {
		if calls.Add(1) == 1 {
			close(entered)
			<-release
			panic("sweep exploded")
		}
		return ch.Characterize(c)
	}
	cfg := testConfig("CG")

	leaderPanicked := make(chan bool, 1)
	go func() {
		defer func() { leaderPanicked <- recover() != nil }()
		st.Get(fastCh, cfg)
	}()
	// Only the goroutine above recovers, so make sure it is the one leading
	// the singleflight entry before the waiter is allowed to race for it.
	<-entered
	var got vmin.Characterization
	waiterDone := make(chan struct{})
	go func() {
		defer close(waiterDone)
		got, _ = st.Get(fastCh, cfg)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for st.InflightWaits() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if !<-leaderPanicked {
		t.Fatal("leader's panic must propagate")
	}
	<-waiterDone
	if !reflect.DeepEqual(got, fastCh.Characterize(cfg)) {
		t.Fatal("waiter must fall back to its own computation")
	}
	// The failed entry was retired: a later Get computes again.
	if _, src := st.Get(fastCh, cfg); src != castore.Computed {
		t.Errorf("post-panic Get source = %v, want computed", src)
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig("CG")
	want := fastCh.Characterize(cfg)

	first := New(dir)
	if _, src := first.Get(fastCh, cfg); src != castore.Computed {
		t.Fatalf("cold Get source = %v, want computed", src)
	}

	second := New(dir)
	got, src := second.Get(fastCh, cfg)
	if src != castore.Disk {
		t.Fatalf("fresh-process Get source = %v, want disk", src)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("disk round trip must be deep-equal to a direct Characterize")
	}
	if second.DiskHits() != 1 || second.Misses() != 0 {
		t.Errorf("diskHits/misses = %d/%d, want 1/0", second.DiskHits(), second.Misses())
	}
	// And it is now resident: the next Get is a memory hit.
	if _, src := second.Get(fastCh, cfg); src != castore.Memory {
		t.Errorf("resident Get source = %v, want memory", src)
	}
}

func TestDiskCorruptionRecomputes(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig("milc")
	want := fastCh.Characterize(cfg)
	New(dir).Get(fastCh, cfg)

	name := oneDiskFile(t, dir)
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(name, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	st := New(dir)
	got, src := st.Get(fastCh, cfg)
	if src != castore.Computed {
		t.Fatalf("truncated file: source = %v, want computed (miss)", src)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("recomputed result must match")
	}
	// The recompute healed the file for the next process.
	if _, src := New(dir).Get(fastCh, cfg); src != castore.Disk {
		t.Errorf("healed file: source = %v, want disk", src)
	}
}

func TestDiskVersionSkewRecomputes(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig("EP")
	New(dir).Get(fastCh, cfg)

	name := oneDiskFile(t, dir)
	raw, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	var f map[string]json.RawMessage
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	f["version"] = json.RawMessage(`"vmin-v0-obsolete"`)
	stale, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(name, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	st := New(dir)
	if _, src := st.Get(fastCh, cfg); src != castore.Computed {
		t.Fatalf("stale model version: source = %v, want computed (miss)", src)
	}
	if st.Misses() != 1 {
		t.Errorf("misses = %d, want 1", st.Misses())
	}
}

func TestDiskUnwritableDirDegradesGracefully(t *testing.T) {
	// A store pointed at an unusable path still serves the in-process tier.
	dir := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	st := New(filepath.Join(dir, "nested"))
	cfg := testConfig("CG")
	if _, src := st.Get(fastCh, cfg); src != castore.Computed {
		t.Fatal("first Get must compute")
	}
	if _, src := st.Get(fastCh, cfg); src != castore.Memory {
		t.Error("memory tier must still work without a usable directory")
	}
}

func TestInstrumentExposesCounters(t *testing.T) {
	st := New("")
	reg := telemetry.NewRegistry()
	st.Instrument(reg)
	cfg := testConfig("CG")
	st.Get(fastCh, cfg)
	st.Get(fastCh, cfg)

	for full, want := range map[string]float64{
		MetricHits + `{tier="memory"}`: 1,
		MetricHits + `{tier="disk"}`:   0,
		MetricMisses:                   1,
		MetricInflightWaits:            0,
		MetricEntries:                  1,
	} {
		got, ok := reg.Value(full)
		if !ok {
			t.Errorf("metric %s not registered", full)
			continue
		}
		if got != want {
			t.Errorf("%s = %v, want %v", full, got, want)
		}
	}
}

// TestSharedCacheDirConcurrent is the shared-filesystem contract of a
// Store's dir: several processes (modeled as independent Stores — no
// shared memory tier, no shared singleflight) may point at the same
// directory. Writers race, but each write lands as a temp file followed
// by an atomic rename, and a characterization is a pure function of its
// key — so concurrent processes can only ever race to identical content,
// and readers never observe a partial file.
func TestSharedCacheDirConcurrent(t *testing.T) {
	dir := t.TempDir()
	benches := []string{"CG", "milc", "EP", ""}
	want := map[string]vmin.Characterization{}
	for _, bench := range benches {
		want[bench] = fastCh.Characterize(testConfig(bench))
	}

	stores := []*Store{New(dir), New(dir), New(dir)}
	const perStore = 4
	var wg sync.WaitGroup
	errs := make(chan string, len(stores)*perStore)
	for si, st := range stores {
		for g := 0; g < perStore; g++ {
			wg.Add(1)
			go func(st *Store, off int) {
				defer wg.Done()
				for i := 0; i < 2*len(benches); i++ {
					bench := benches[(off+i)%len(benches)]
					cfg := testConfig(bench)
					got, _ := st.Get(fastCh, cfg)
					w := want[bench]
					w.Config = got.Config
					if !reflect.DeepEqual(got, w) {
						errs <- "store served a divergent dataset for " + bench
						return
					}
				}
			}(st, si+g)
		}
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}

	// The directory holds exactly one complete file per cell and no
	// abandoned temp files.
	finals, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(finals) != len(benches) {
		t.Fatalf("dataset files = %v, want %d (%v)", finals, len(benches), err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("temp-file debris left behind: %v", tmps)
	}
	for _, name := range finals {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		var f struct {
			Version string   `json:"version"`
			Key     string   `json:"key"`
			Payload *dataset `json:"payload"`
		}
		if err := json.Unmarshal(raw, &f); err != nil {
			t.Fatalf("%s is not a complete envelope: %v", name, err)
		}
		if f.Version != vmin.ModelVersion || f.Key == "" || f.Payload == nil {
			t.Fatalf("%s has a bad envelope: %+v", name, f)
		}
	}

	// A process started after the dust settles serves every cell from the
	// shared disk tier without a single sweep.
	fresh := New(dir)
	for _, bench := range benches {
		if _, src := fresh.Get(fastCh, testConfig(bench)); src != castore.Disk {
			t.Errorf("fresh store source for %q = %v, want disk", bench, src)
		}
	}
	if fresh.Misses() != 0 {
		t.Errorf("fresh store simulated %d cells, want 0", fresh.Misses())
	}
}
