package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/ringbuf"
	"avfs/internal/workload"
)

func TestEventLogDisabledByDefault(t *testing.T) {
	m := New(chip.XGene3Spec())
	p := m.MustSubmit(workload.MustByName("namd"), 1)
	m.Place(p, []chip.CoreID{0})
	m.RunFor(0.1)
	if m.Events() != nil {
		t.Error("event log must be off by default")
	}
}

func TestEventLogLifecycle(t *testing.T) {
	m := New(chip.XGene3Spec())
	m.EnableEventLog()
	p := m.MustSubmit(workload.MustByName("IS"), 2)
	m.Place(p, []chip.CoreID{0, 1})
	m.RunFor(1)
	if err := m.Reassign(map[*Process][]chip.CoreID{p: {4, 5}}); err != nil {
		t.Fatal(err)
	}
	m.RunUntilIdle(3600)

	kinds := map[EventKind]int{}
	for _, e := range m.Events() {
		kinds[e.Kind]++
	}
	for _, want := range []EventKind{EvSubmit, EvPlace, EvMigrate, EvFinish} {
		if kinds[want] == 0 {
			t.Errorf("no %v event recorded", want)
		}
	}
	if kinds[EvEmergency] != 0 {
		t.Error("no emergencies expected at nominal voltage")
	}
}

func TestEventLogVoltageAndFreqChanges(t *testing.T) {
	m := New(chip.XGene2Spec())
	m.EnableEventLog()
	p := m.MustSubmit(workload.MustByName("namd"), 1)
	m.Place(p, []chip.CoreID{0})
	m.Chip.SetVoltage(900)
	m.Chip.SetPMDFreq(0, 1200)
	m.RunFor(0.05)
	var sawV, sawF bool
	for _, e := range m.Events() {
		if e.Kind == EvVoltage && strings.Contains(e.Detail(), "900mV") {
			sawV = true
		}
		if e.Kind == EvFreq && strings.Contains(e.Detail(), "PMD0") {
			sawF = true
		}
	}
	if !sawV || !sawF {
		t.Errorf("voltage/freq changes not logged (V=%v F=%v)", sawV, sawF)
	}
}

func TestEventLogRecordsEmergencies(t *testing.T) {
	m := New(chip.XGene3Spec())
	m.EnableEventLog()
	m.Chip.SetVoltage(700)
	p := m.MustSubmit(workload.MustByName("CG"), 32)
	cores, _ := ClusteredCores(m.Spec, 32)
	m.Place(p, cores)
	m.RunFor(0.05)
	found := false
	for _, e := range m.Events() {
		if e.Kind == EvEmergency {
			found = true
			if !strings.Contains(e.Detail(), "required") {
				t.Errorf("emergency detail %q missing requirement", e.Detail())
			}
		}
	}
	if !found {
		t.Error("emergency not logged")
	}
}

func TestSubscribeReceivesEventsWithoutLog(t *testing.T) {
	m := New(chip.XGene3Spec())
	var got []Event
	m.Subscribe(func(e Event) { got = append(got, e) })
	if m.Events() != nil {
		t.Fatal("Subscribe must not enable the bounded log")
	}
	p := m.MustSubmit(workload.MustByName("IS"), 2)
	m.Place(p, []chip.CoreID{0, 1})
	m.Chip.SetVoltage(m.Chip.Voltage() - 10)
	m.RunUntilIdle(3600)

	kinds := map[EventKind]int{}
	for _, e := range got {
		kinds[e.Kind]++
	}
	for _, want := range []EventKind{EvSubmit, EvPlace, EvVoltage, EvFinish} {
		if kinds[want] == 0 {
			t.Errorf("subscriber saw no %v event", want)
		}
	}
	if m.Events() != nil {
		t.Error("bounded log silently enabled by event generation")
	}
}

func TestEventLogBounded(t *testing.T) {
	m := New(chip.XGene3Spec())
	m.EnableEventLog()
	m.log = ringbuf.New[Event](10)
	for i := 0; i < 25; i++ {
		m.now = float64(i)
		m.logEvent(Event{Kind: EvPlace, Proc: i})
	}
	events := m.Events()
	if len(events) > 10 {
		t.Errorf("log grew to %d events beyond the bound", len(events))
	}
	if m.EventsDropped() == 0 {
		t.Error("bound never dropped anything")
	}
	// The newest events survive.
	if last := events[len(events)-1]; last.At != 24 {
		t.Errorf("newest event lost: %v", last)
	}
}

func TestEventLogEvictionPreservesOrdering(t *testing.T) {
	// Overwriting the oldest event must keep the survivors in their
	// original append order with no gaps: after any number of additions the
	// log is a contiguous, ordered suffix of everything ever added.
	m := New(chip.XGene3Spec())
	m.EnableEventLog()
	m.log = ringbuf.New[Event](16)
	for i := 0; i < 100; i++ {
		m.now = float64(i)
		m.logEvent(Event{Kind: EvPlace, Proc: i})
		events := m.Events()
		if len(events) == 0 {
			t.Fatal("log empty after add")
		}
		for j := 1; j < len(events); j++ {
			if events[j].Proc != events[j-1].Proc+1 {
				t.Fatalf("after add %d: events not contiguous at %d: %v -> %v",
					i, j, events[j-1].Proc, events[j].Proc)
			}
		}
		if newest := events[len(events)-1].Proc; newest != i {
			t.Fatalf("after add %d: newest event is %d", i, newest)
		}
		if oldest := events[0].Proc; oldest != i+1-len(events) {
			t.Fatalf("after add %d: log of %d events starts at %d, want %d",
				i, len(events), oldest, i+1-len(events))
		}
		if dropped := m.EventsDropped(); dropped+len(events) != i+1 {
			t.Fatalf("after add %d: dropped %d + kept %d != added %d",
				i, dropped, len(events), i+1)
		}
	}
}

func TestSubscribeAlongsideLogSeesUnboundedStream(t *testing.T) {
	m := New(chip.XGene3Spec())
	m.EnableEventLog()
	m.log = ringbuf.New[Event](8) // tiny bound so the log evicts while the subscriber tails
	n := 0
	m.Subscribe(func(Event) { n++ })
	p := m.MustSubmit(workload.MustByName("namd"), 1)
	m.Place(p, []chip.CoreID{0})
	for i := 0; i < 15; i++ { // V/F churn overflows the tiny log
		m.Chip.SetVoltage(m.Spec.NominalMV - chip.Millivolts(i%2)*10)
		m.RunFor(0.02)
	}
	total := m.EventsDropped() + len(m.Events())
	if n != total {
		t.Errorf("subscriber saw %d events, log accounts for %d", n, total)
	}
	if m.EventsDropped() == 0 {
		t.Error("test did not exercise eviction; lower the limit")
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 1.5, Kind: EvPlace, Proc: 3, Text: "CG on [0 1]"}
	s := e.String()
	if !strings.Contains(s, "place") || !strings.Contains(s, "proc=3") {
		t.Errorf("event string %q", s)
	}
	e2 := Event{At: 2, Kind: EvVoltage, Proc: -1, From: 870, To: 835}
	if strings.Contains(e2.String(), "proc=") {
		t.Error("non-process events must omit proc=")
	}
}

// TestEventDetailMatchesFmt pins the render-on-read detail of every kind
// to the fmt formats the log used to store.
func TestEventDetailMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		n, from, to := int32(rng.Intn(64)), int32(rng.Intn(4000)-100), int32(rng.Intn(4000))
		secs := rng.ExpFloat64() * 100
		if i%7 == 0 {
			secs = math.Round(secs*10)/10 + 0.05 // a rounding tie
		}
		for _, tc := range []struct {
			e    Event
			want string
		}{
			{Event{Kind: EvSubmit, Text: "CG", N: n}, fmt.Sprintf("%s x%d threads", "CG", n)},
			{Event{Kind: EvPlace, Text: "lbm on [3]"}, "lbm on [3]"},
			{Event{Kind: EvMigrate, Text: "CG to [0 1]"}, "CG to [0 1]"},
			{Event{Kind: EvFinish, Text: "mcf", Secs: secs}, fmt.Sprintf("%s after %.1fs", "mcf", secs)},
			{Event{Kind: EvVoltage, From: from, To: to}, fmt.Sprintf("%v -> %v", chip.Millivolts(from), chip.Millivolts(to))},
			{Event{Kind: EvFreq, N: n, From: from, To: to}, fmt.Sprintf("PMD%d %v -> %v", n, chip.MHz(from), chip.MHz(to))},
			{Event{Kind: EvEmergency, From: from, To: to}, fmt.Sprintf("V=%v < required %v", chip.Millivolts(from), chip.Millivolts(to))},
		} {
			if got := tc.e.Detail(); got != tc.want {
				t.Fatalf("%v detail = %q, fmt renders %q", tc.e.Kind, got, tc.want)
			}
		}
	}
}

// TestPlacementTextMatchesFmt pins the place/migrate text to the fmt
// rendering "%s %s %v" of the benchmark, the verb and the core list.
func TestPlacementTextMatchesFmt(t *testing.T) {
	m := New(chip.XGene3Spec())
	var got []Event
	m.Subscribe(func(e Event) { got = append(got, e) })
	p := m.MustSubmit(workload.MustByName("CG"), 4)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		cores := make([]chip.CoreID, rng.Intn(40))
		for j := range cores {
			cores[j] = chip.CoreID(rng.Intn(1 << uint(rng.Intn(20))))
		}
		for _, kind := range []EventKind{EvPlace, EvMigrate} {
			verb := "on"
			if kind == EvMigrate {
				verb = "to"
			}
			m.logPlacement(kind, p, cores)
			if e, want := got[len(got)-1], fmt.Sprintf("%s %s %v", p.Bench.Name, verb, cores); e.Detail() != want {
				t.Fatalf("%v text %q, fmt renders %q", kind, e.Detail(), want)
			}
		}
	}
}

// TestVFEventLoggingZeroAlloc pins logging a V/F change to a subscriber
// at zero allocations.
func TestVFEventLoggingZeroAlloc(t *testing.T) {
	m := New(chip.XGene3Spec())
	m.EnableEventLog()
	m.log = ringbuf.New[Event](16)
	n := 0
	m.Subscribe(func(Event) { n++ })
	p := m.MustSubmit(workload.MustByName("namd"), 1)
	m.Place(p, []chip.CoreID{0})
	levels := []chip.MHz{m.Spec.MaxFreq, m.Spec.HalfFreq()}
	i := 0
	step := func() {
		i++
		m.Chip.SetPMDFreq(0, levels[i%2])
		m.Step()
	}
	for j := 0; j < 32; j++ {
		step() // fill the log so its slots stop growing
	}
	before := n
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("a V/F-changing tick allocates %.1f times, want 0", allocs)
	}
	if n == before {
		t.Fatal("no event reached the subscriber")
	}
}

func TestEventKindStrings(t *testing.T) {
	names := map[EventKind]string{
		EvSubmit: "submit", EvPlace: "place", EvMigrate: "migrate",
		EvFinish: "finish", EvVoltage: "voltage", EvFreq: "freq",
		EvEmergency: "emergency",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
