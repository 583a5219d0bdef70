package export

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"avfs/internal/sim"
	"avfs/internal/telemetry"
)

func testRegistry() *telemetry.Registry {
	r := telemetry.NewRegistry()
	c := r.Counter("avfs_test_events_total", "number of test events", telemetry.Label{Key: "kind", Value: "submit"})
	c.Add(3)
	c2 := r.Counter("avfs_test_events_total", "number of test events", telemetry.Label{Key: "kind", Value: "finish"})
	c2.Add(1)
	r.Gauge("avfs_test_voltage_millivolts", "current rail voltage", func() float64 { return 915.5 })
	h := r.Histogram("avfs_test_latency_seconds", "reconfiguration latency", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)
	fc := r.FloatCounter("avfs_test_residency_seconds", "time in class", telemetry.Label{Key: "class", Value: "max"})
	fc.Add(12.5)
	return r
}

func TestPrometheusExportParses(t *testing.T) {
	var buf bytes.Buffer
	if err := Prometheus(&buf, testRegistry()); err != nil {
		t.Fatalf("export: %v", err)
	}
	ms, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("export does not parse:\n%s\nerror: %v", buf.String(), err)
	}
	if m, ok := Find(ms, "avfs_test_events_total", map[string]string{"kind": "submit"}); !ok || m.Value != 3 {
		t.Errorf("events{kind=submit} = %+v (ok=%v), want 3", m, ok)
	}
	if m, ok := Find(ms, "avfs_test_voltage_millivolts", nil); !ok || m.Value != 915.5 {
		t.Errorf("voltage = %+v (ok=%v), want 915.5", m, ok)
	}
	// Histogram expands to cumulative buckets plus _sum and _count.
	if m, ok := Find(ms, "avfs_test_latency_seconds_bucket", map[string]string{"le": "0.1"}); !ok || m.Value != 2 {
		t.Errorf("bucket le=0.1 = %+v (ok=%v), want cumulative 2", m, ok)
	}
	if m, ok := Find(ms, "avfs_test_latency_seconds_bucket", map[string]string{"le": "+Inf"}); !ok || m.Value != 3 {
		t.Errorf("bucket le=+Inf = %+v (ok=%v), want 3", m, ok)
	}
	if m, ok := Find(ms, "avfs_test_latency_seconds_count", nil); !ok || m.Value != 3 {
		t.Errorf("count = %+v (ok=%v), want 3", m, ok)
	}
	if m, ok := Find(ms, "avfs_test_latency_seconds_sum", nil); !ok || math.Abs(m.Value-5.055) > 1e-9 {
		t.Errorf("sum = %+v (ok=%v), want 5.055", m, ok)
	}
}

func TestPrometheusSingleTypeHeaderPerFamily(t *testing.T) {
	var buf bytes.Buffer
	if err := Prometheus(&buf, testRegistry()); err != nil {
		t.Fatalf("export: %v", err)
	}
	if n := strings.Count(buf.String(), "# TYPE avfs_test_events_total "); n != 1 {
		t.Errorf("TYPE header for labelled family appears %d times, want 1", n)
	}
	if !strings.Contains(buf.String(), "# HELP avfs_test_voltage_millivolts current rail voltage") {
		t.Error("missing HELP line for gauge")
	}
}

// TestPrometheusLabelEscapingRoundTrip pushes hostile label values —
// backslashes, quotes, newlines — through the exporter and back through
// the validating parser: the values must survive exactly, and nothing in
// the output may break line framing.
func TestPrometheusLabelEscapingRoundTrip(t *testing.T) {
	r := telemetry.NewRegistry()
	hostile := map[string]string{
		"quoted":  `say "hi"`,
		"slashed": `C:\temp\x`,
		"newline": "line1\nline2",
		"mixed":   "a\\\"b\nc",
	}
	for k, v := range hostile {
		r.Counter("avfs_escape_total", "escape test", telemetry.Label{Key: "case", Value: v},
			telemetry.Label{Key: "name", Value: k}).Add(1)
	}
	var buf bytes.Buffer
	if err := Prometheus(&buf, r); err != nil {
		t.Fatalf("export: %v", err)
	}
	ms, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("escaped export does not parse:\n%s\nerror: %v", buf.String(), err)
	}
	for k, v := range hostile {
		m, ok := Find(ms, "avfs_escape_total", map[string]string{"name": k})
		if !ok {
			t.Errorf("case %s missing from parsed export", k)
			continue
		}
		if m.Labels["case"] != v {
			t.Errorf("case %s: round-tripped %q, want %q", k, m.Labels["case"], v)
		}
	}
}

// TestPrometheusApproxQuantiles checks the derived _approx_quantile
// gauge family: present, typed, one series per requested quantile, and
// consistent with BucketQuantile on the same data.
func TestPrometheusApproxQuantiles(t *testing.T) {
	var buf bytes.Buffer
	if err := Prometheus(&buf, testRegistry()); err != nil {
		t.Fatalf("export: %v", err)
	}
	out := buf.String()
	if n := strings.Count(out, "# TYPE avfs_test_latency_seconds_approx_quantile gauge"); n != 1 {
		t.Fatalf("quantile family TYPE line appears %d times, want 1:\n%s", n, out)
	}
	ms, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("export does not parse: %v", err)
	}
	// testRegistry's histogram: 0.005, 0.05, 5 over bounds {0.01, 0.1, 1}.
	want := telemetry.BucketQuantile([]float64{0.01, 0.1, 1}, []int64{1, 1, 0, 1}, 0.5)
	m, ok := Find(ms, "avfs_test_latency_seconds_approx_quantile", map[string]string{"quantile": "0.5"})
	if !ok {
		t.Fatal("missing approx-quantile series for quantile=0.5")
	}
	if math.Abs(m.Value-want) > 1e-9 {
		t.Errorf("exported p50 = %v, want %v", m.Value, want)
	}
	for _, q := range []string{"0.9", "0.99", "0.999"} {
		if _, ok := Find(ms, "avfs_test_latency_seconds_approx_quantile", map[string]string{"quantile": q}); !ok {
			t.Errorf("missing approx-quantile series for quantile=%s", q)
		}
	}
}

func TestParsePrometheusRejectsGarbage(t *testing.T) {
	bad := []string{
		"no_value_metric\n",
		"bad-name 1\n",
		`m{l="unterminated} 1` + "\n",
		"# TYPE m counter\n# TYPE m gauge\nm 1\n",
		"m not_a_number\n",
	}
	for _, in := range bad {
		if _, err := ParsePrometheus(strings.NewReader(in)); err == nil {
			t.Errorf("ParsePrometheus accepted %q", in)
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := telemetry.NewTracer()
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	sink.Attach(tr)

	// Each record and the wire form it renders to.
	cases := []struct {
		rec  telemetry.Record
		want telemetry.Decision
	}{
		{telemetry.Record{At: 1.5, Kind: telemetry.DecClassify, Rule: telemetry.Intern("l3c>=threshold+hyst"), Proc: 2,
			Class: telemetry.Intern("memory"), Value: 4150, UtilizedPMDs: 3, DroopClass: 2},
			telemetry.Decision{At: 1.5, Kind: telemetry.DecClassify, Rule: "l3c>=threshold+hyst", Proc: 2,
				Class: "memory", L3CRate: 4150, UtilizedPMDs: 3, DroopClass: 2}},
		{telemetry.Record{At: 1.5, Kind: telemetry.DecClassFlip, Rule: telemetry.Intern("l3c>=threshold+hyst"), Proc: 2,
			Class: telemetry.Intern("memory"), PrevClass: telemetry.Intern("cpu"), Value: 4150.25},
			telemetry.Decision{At: 1.5, Kind: telemetry.DecClassFlip, Rule: "l3c>=threshold+hyst", Proc: 2,
				Class: "memory", L3CRate: 4150.25, Detail: "cpu -> memory"}},
		{telemetry.Record{At: 1.5, Kind: telemetry.DecPlacement, Rule: telemetry.Intern("cluster-cpu/spread-mem"), Proc: -1,
			UtilizedPMDs: 4, DroopClass: 1, N: 0},
			telemetry.Decision{At: 1.5, Kind: telemetry.DecPlacement, Rule: "cluster-cpu/spread-mem", Proc: -1,
				UtilizedPMDs: 4, DroopClass: 1, Detail: "0 processes planned"}},
		{telemetry.Record{At: 1.5, Kind: telemetry.DecGuardRaise, Rule: telemetry.Intern("fail-safe-raise"), Reconfig: 7,
			Proc: -1, From: 880, To: 940, Required: 940, N: 940},
			telemetry.Decision{At: 1.5, Kind: telemetry.DecGuardRaise, Rule: "fail-safe-raise", Reconfig: 7,
				Proc: -1, FromMV: 880, ToMV: 940, RequiredMV: 940, Detail: "guard level 940mV"}},
		{telemetry.Record{At: 1.5, Kind: telemetry.DecGuardRaise, Rule: telemetry.Intern("monitor-resettle"), Reconfig: 8,
			Proc: -1, From: 880, To: 880, Required: 870},
			telemetry.Decision{At: 1.5, Kind: telemetry.DecGuardRaise, Rule: "monitor-resettle", Reconfig: 8,
				Proc: -1, FromMV: 880, ToMV: 880, RequiredMV: 870}},
		{telemetry.Record{At: 1.55, Kind: telemetry.DecReconfigure, Rule: telemetry.Intern("apply-plan"), Reconfig: 7,
			Proc: -1, UtilizedPMDs: 3, DroopClass: 1, N: 2},
			telemetry.Decision{At: 1.55, Kind: telemetry.DecReconfigure, Rule: "apply-plan", Reconfig: 7,
				Proc: -1, UtilizedPMDs: 3, DroopClass: 1, Detail: "migrations=2"}},
		{telemetry.Record{At: 1.6, Kind: telemetry.DecSettle, Rule: telemetry.Intern("settle-to-safe-vmin"), Reconfig: 7,
			Proc: -1, From: 940, To: 895, Required: 895, UtilizedPMDs: 3, DroopClass: 1},
			telemetry.Decision{At: 1.6, Kind: telemetry.DecSettle, Rule: "settle-to-safe-vmin", Reconfig: 7,
				Proc: -1, FromMV: 940, ToMV: 895, RequiredMV: 895, UtilizedPMDs: 3, DroopClass: 1}},
		{telemetry.MachineRecord(sim.Event{At: 1.6, Kind: sim.EvFreq, Proc: -1, N: 3, From: 3000, To: 1500}),
			telemetry.Decision{At: 1.6, Kind: telemetry.DecMachineEvent, Rule: "freq", Proc: -1,
				Detail: "PMD3 3000MHz -> 1500MHz"}},
		{telemetry.MachineRecord(sim.Event{At: 1.7, Kind: sim.EvFinish, Proc: 4, Text: "mcf", Secs: 31.25}),
			telemetry.Decision{At: 1.7, Kind: telemetry.DecMachineEvent, Rule: "finish", Proc: 4,
				Detail: "mcf after 31.2s"}},
	}
	var want []telemetry.Decision
	for _, c := range cases {
		tr.Emit(c.rec)
		want = append(want, c.want)
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("round-tripped %d decisions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("decision %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestJSONLLatchesWriteError(t *testing.T) {
	sink := NewJSONL(failWriter{})
	sink.Write(telemetry.Record{Kind: telemetry.DecClassify})
	sink.Flush()
	if sink.Err() == nil {
		t.Error("sink must latch the underlying write error")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errShort }

var errShort = &shortErr{}

type shortErr struct{}

func (*shortErr) Error() string { return "short write" }

func FuzzParsePrometheus(f *testing.F) {
	var buf bytes.Buffer
	_ = Prometheus(&buf, testRegistry())
	f.Add(buf.String())
	f.Add("# HELP m h\n# TYPE m counter\nm 1\n")
	f.Add(`m{a="b",c="d"} 2.5` + "\n")
	f.Add("m{} NaN\n")
	f.Fuzz(func(t *testing.T, in string) {
		ms, err := ParsePrometheus(strings.NewReader(in))
		if err != nil {
			return
		}
		// Whatever parses must re-expose sane names.
		for _, m := range ms {
			if m.Name == "" {
				t.Errorf("parsed metric with empty name from %q", in)
			}
		}
	})
}
