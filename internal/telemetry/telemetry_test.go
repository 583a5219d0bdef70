package telemetry

import (
	"math"
	"sync"
	"testing"
	"unsafe"
)

func TestCounterAndFloatCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	f := r.FloatCounter("f_total", "help")
	f.Add(0.25)
	f.Add(0.5)
	if f.Value() != 0.75 {
		t.Errorf("float counter = %v, want 0.75", f.Value())
	}
}

func TestGaugeReadsCallbackAtGather(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.Gauge("g", "help", func() float64 { return v })
	v = 42
	if got, ok := r.Value("g"); !ok || got != 42 {
		t.Errorf("gauge = %v (ok=%v), want 42", got, ok)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "help", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 10} {
		h.Observe(v)
	}
	want := []int64{2, 1, 1, 1} // ≤1: {0.5,1}; ≤2: {1.5}; ≤5: {3}; +Inf: {10}
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket[%d] = %d, want %d (%v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 5 || h.Sum() != 16 {
		t.Errorf("count=%d sum=%v, want 5/16", h.Count(), h.Sum())
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate metric must panic")
		}
	}()
	r.Counter("dup", "")
}

func TestLabelsDistinguishMetrics(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", "", Label{"k", "a"})
	b := r.Counter("m", "", Label{"k", "b"})
	a.Inc()
	b.Add(2)
	if v, _ := r.Value(`m{k="a"}`); v != 1 {
		t.Errorf(`m{k="a"} = %v, want 1`, v)
	}
	if v, _ := r.Value(`m{k="b"}`); v != 2 {
		t.Errorf(`m{k="b"} = %v, want 2`, v)
	}
}

func TestGatherSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "")
	r.Gauge("a_gauge", "", func() float64 { return 7 })
	r.Histogram("m_hist", "", []float64{1})
	samples := r.Gather()
	if len(samples) != 3 {
		t.Fatalf("gathered %d samples, want 3", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i-1].Full >= samples[i].Full {
			t.Errorf("gather not sorted: %q >= %q", samples[i-1].Full, samples[i].Full)
		}
	}
	if samples[0].Name != "a_gauge" || samples[0].Value != 7 {
		t.Errorf("first sample %+v", samples[0])
	}
}

func TestConcurrentHotPath(t *testing.T) {
	// Counters, histograms and Gather must be race-free together (the
	// exporter may scrape while the daemon steps).
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h", "", []float64{1, 10})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 20))
			}
		}()
	}
	for i := 0; i < 50; i++ {
		r.Gather()
	}
	wg.Wait()
	if c.Value() != 4000 || h.Count() != 4000 {
		t.Errorf("counter=%d hist=%d, want 4000/4000", c.Value(), h.Count())
	}
}

func TestTracerSubscribeAndToggle(t *testing.T) {
	tr := NewTracer()
	if tr.Active() {
		t.Error("tracer with no subscribers must be inactive")
	}
	var got []Record
	tr.Subscribe(func(r Record) { got = append(got, r) })
	if !tr.Active() {
		t.Error("subscribed tracer must be active")
	}
	tr.Emit(Record{Kind: DecSettle, Proc: -1})
	tr.SetEnabled(false)
	tr.Emit(Record{Kind: DecSettle, Proc: -1})
	tr.SetEnabled(true)
	tr.Emit(Record{Kind: DecGuardRaise, Proc: -1})
	if len(got) != 2 {
		t.Fatalf("received %d decisions, want 2 (disabled emit must drop)", len(got))
	}
	if got[1].Kind != DecGuardRaise {
		t.Errorf("second decision kind %v", got[1].Kind)
	}
}

func TestReconfigSequence(t *testing.T) {
	tr := NewTracer()
	if a, b := tr.NextReconfig(), tr.NextReconfig(); a != 1 || b != 2 {
		t.Errorf("sequence %d,%d, want 1,2", a, b)
	}
}

func TestDecisionKindText(t *testing.T) {
	for k := DecClassify; k <= DecMachineEvent; k++ {
		b, err := k.MarshalText()
		if err != nil {
			t.Fatalf("marshal %v: %v", int(k), err)
		}
		var back DecisionKind
		if err := back.UnmarshalText(b); err != nil || back != k {
			t.Errorf("round trip %q -> %v (err %v), want %v", b, back, err, k)
		}
	}
	var k DecisionKind
	if err := k.UnmarshalText([]byte("bogus")); err == nil {
		t.Error("unknown kind must fail to unmarshal")
	}
}

// TestRecordSlotSize pins the decision-ring slot: a Record is 72 bytes
// (a rendered Decision is 128 plus its strings).
func TestRecordSlotSize(t *testing.T) {
	if sz := unsafe.Sizeof(Record{}); sz != 72 {
		t.Errorf("Record is %d bytes, want 72", sz)
	}
}

// TestInternRoundTrip pins the symbol table: Sym(0) is "", a name interns
// to one symbol, and an unknown symbol renders empty.
func TestInternRoundTrip(t *testing.T) {
	if Intern("") != 0 || Sym(0).String() != "" {
		t.Error(`Sym(0) must be ""`)
	}
	a, b := Intern("test-rule-a"), Intern("test-rule-b")
	if a == b || Intern("test-rule-a") != a || a.String() != "test-rule-a" || b.String() != "test-rule-b" {
		t.Errorf("intern: a=%d %q, b=%d %q", a, a.String(), b, b.String())
	}
	if got := Sym(math.MaxUint16).String(); got != "" {
		t.Errorf("unknown symbol renders %q", got)
	}
}
