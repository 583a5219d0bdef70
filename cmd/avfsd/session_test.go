package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"avfs/internal/chip"
	"avfs/internal/daemon"
	"avfs/internal/experiments"
	"avfs/internal/snapshot"
	"avfs/internal/telemetry"
	texport "avfs/internal/telemetry/export"
)

// canonicalScript is the interactive script the scripted-session tests
// and the golden session run: a CG/lbm mix that drives memory-intensive
// spreading, then namd, EP and milc arrivals.
var canonicalScript = []string{
	"submit CG 8",
	"submit lbm 1",
	"run 30",
	"submit namd 1",
	"submit EP 4",
	"run 30",
	"submit milc 1",
	"run 60",
}

// mustSession builds an X-Gene 3 session under mode writing to out.
func mustSession(t *testing.T, mode string, out io.Writer) *session {
	t.Helper()
	s, err := newSession(chip.XGene3Spec(), mode, out)
	if err != nil {
		t.Fatalf("mode %q: %v", mode, err)
	}
	return s
}

// scriptedSession runs the canonical interactive script against a fully
// wired session with a JSONL trace attached, returning the decoded trace
// and the session (for registry assertions).
func scriptedSession(t *testing.T) (*session, []telemetry.Decision) {
	t.Helper()
	var out bytes.Buffer
	s := mustSession(t, "optimal", &out)
	var trace bytes.Buffer
	s.streamJSONL(&trace)
	for _, line := range canonicalScript {
		if s.exec(line) {
			t.Fatalf("command %q ended the session", line)
		}
	}
	s.close()
	ds, err := texport.ReadJSONL(bytes.NewReader(trace.Bytes()))
	if err != nil {
		t.Fatalf("trace does not decode: %v", err)
	}
	if len(ds) == 0 {
		t.Fatal("scripted session produced an empty decision trace")
	}
	return s, ds
}

// TestFailSafeOrderInTrace is the issue's acceptance check: in the JSONL
// decision trace of a scripted session, every voltage-lowering settle is
// preceded by a guard-raise event of the same reconfiguration.
func TestFailSafeOrderInTrace(t *testing.T) {
	_, ds := scriptedSession(t)
	raised := map[int64]int{} // reconfig id -> index of guard-raise
	lowerings := 0
	for i, d := range ds {
		switch d.Kind {
		case telemetry.DecGuardRaise:
			if d.Reconfig == 0 {
				t.Errorf("event %d: guard-raise without a reconfiguration id", i)
			}
			if _, dup := raised[d.Reconfig]; dup {
				t.Errorf("event %d: duplicate guard-raise for reconfiguration %d", i, d.Reconfig)
			}
			raised[d.Reconfig] = i
			if d.ToMV < d.FromMV {
				t.Errorf("event %d: guard phase lowered the voltage (%d -> %d mV)", i, d.FromMV, d.ToMV)
			}
		case telemetry.DecSettle:
			j, ok := raised[d.Reconfig]
			if !ok || j >= i {
				t.Errorf("event %d: settle of reconfiguration %d has no preceding guard-raise", i, d.Reconfig)
			}
			if d.ToMV < d.FromMV {
				lowerings++
			}
			if d.ToMV < d.RequiredMV {
				t.Errorf("event %d: settle below the required Vmin (%d < %d mV)", i, d.ToMV, d.RequiredMV)
			}
		}
	}
	// The check must not pass vacuously: the mixed CG/lbm workload drives
	// memory-intensive spreading at reduced frequency, which lowers Vmin.
	if lowerings == 0 {
		t.Error("scripted session never lowered the voltage; acceptance check is vacuous")
	}
}

// TestTraceRecordsClassificationInputs checks the decision-trace schema:
// classifications carry their inputs (L3C rate, class, rule).
func TestTraceRecordsClassificationInputs(t *testing.T) {
	_, ds := scriptedSession(t)
	classified := 0
	for i, d := range ds {
		if d.Kind != telemetry.DecClassify {
			continue
		}
		classified++
		if d.Rule == "" {
			t.Errorf("event %d: classification without the rule that fired", i)
		}
		if d.Class == "" {
			t.Errorf("event %d: classification without a class", i)
		}
		if d.Proc < 0 {
			t.Errorf("event %d: classification without a process id", i)
		}
	}
	if classified == 0 {
		t.Error("trace has no classification decisions")
	}
}

// TestTraceToggle verifies `trace off` stops the stream and `trace on`
// resumes it.
func TestTraceToggle(t *testing.T) {
	var out bytes.Buffer
	s := mustSession(t, "optimal", &out)
	var trace bytes.Buffer
	s.streamJSONL(&trace)
	s.exec("trace off")
	s.exec("submit CG 8")
	s.exec("run 30")
	s.close()
	if ds, _ := texport.ReadJSONL(bytes.NewReader(trace.Bytes())); len(ds) != 0 {
		t.Errorf("trace off still streamed %d decisions", len(ds))
	}
	s.exec("trace on")
	s.exec("submit lbm 1")
	s.exec("run 30")
	s.close()
	if ds, _ := texport.ReadJSONL(bytes.NewReader(trace.Bytes())); len(ds) == 0 {
		t.Error("trace on did not resume the stream")
	}
}

// TestDumpParsesAsPrometheus drives `dump <file>` and feeds the result to
// the format check.
func TestDumpParsesAsPrometheus(t *testing.T) {
	s, _ := scriptedSession(t)
	path := filepath.Join(t.TempDir(), "metrics.prom")
	s.exec("dump " + path)
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("dump did not create the file: %v", err)
	}
	defer f.Close()
	ms, err := texport.ParsePrometheus(f)
	if err != nil {
		t.Fatalf("dump does not parse as Prometheus text format: %v", err)
	}
	for _, name := range []string{
		telemetry.MetricVoltageMV,
		telemetry.MetricEnergyJoules,
		daemon.MetricPolls,
		daemon.MetricResidency,
	} {
		if _, ok := texport.Find(ms, name, nil); !ok {
			t.Errorf("dump missing metric %s", name)
		}
	}
}

// TestStatusAgreesWithRegistry re-runs `status` and checks the numbers it
// prints are the registry's numbers (the refactor's whole point).
func TestStatusAgreesWithRegistry(t *testing.T) {
	var out bytes.Buffer
	s := mustSession(t, "optimal", &out)
	s.exec("submit CG 8")
	s.exec("run 30")
	out.Reset()
	s.exec("status")
	text := out.String()
	v, _ := s.reg.Value(telemetry.MetricVoltageMV)
	if want := "V=" + itoa(int(v)) + "mV"; !strings.Contains(text, want) {
		t.Errorf("status output lacks %q:\n%s", want, text)
	}
	polls, _ := s.reg.Value(daemon.MetricPolls)
	if want := "polls " + itoa(int(polls)); !strings.Contains(text, want) {
		t.Errorf("status output lacks %q:\n%s", want, text)
	}
	out.Reset()
	s.exec("stats")
	if !strings.Contains(out.String(), telemetry.MetricVoltageMV) {
		t.Errorf("stats output lacks %s:\n%s", telemetry.MetricVoltageMV, out.String())
	}
}

// TestSysfsExposesTelemetry reads a metric through the virtual sysfs and
// checks read-only enforcement.
func TestSysfsExposesTelemetry(t *testing.T) {
	s, _ := scriptedSession(t)
	var node string
	for _, p := range s.fs.List() {
		if strings.Contains(p, telemetry.MetricVoltageMV) {
			node = p
			break
		}
	}
	if node == "" {
		t.Fatalf("no sysfs node for %s in %v", telemetry.MetricVoltageMV, s.fs.List())
	}
	v, err := s.fs.Read(node)
	if err != nil {
		t.Fatalf("read %s: %v", node, err)
	}
	want, _ := s.reg.Value(telemetry.MetricVoltageMV)
	if got, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err != nil || got != want {
		t.Errorf("telemetry node %s = %q (err %v), registry says %v", node, v, err, want)
	}
	if err := s.fs.Write(node, "0"); err == nil {
		t.Errorf("telemetry node %s must be read-only", node)
	}
}

// TestModes builds a session under each -mode name: the four Table IV
// configurations enable their own stack, monitor runs the Optimal daemon
// with placement and voltage adaptation off, and an unknown name fails.
func TestModes(t *testing.T) {
	for _, tc := range []struct {
		mode                      string
		daemon, base, place, volt bool
	}{
		{"baseline", false, true, false, false},
		{"safe-vmin", false, true, false, false},
		{"placement", true, false, true, false},
		{"optimal", true, false, true, true},
		{"monitor", true, false, false, false},
	} {
		var out bytes.Buffer
		s := mustSession(t, tc.mode, &out)
		var st snapshot.SessionState
		if err := s.stack.Capture(&st); err != nil {
			t.Fatal(err)
		}
		if st.Daemon.Disabled == tc.daemon || st.Baseline.Disabled == tc.base {
			t.Errorf("%s: daemon disabled %t, baseline disabled %t", tc.mode, st.Daemon.Disabled, st.Baseline.Disabled)
		}
		if cfg := s.stack.D.Cfg; tc.daemon && (cfg.AdaptPlacement != tc.place || cfg.AdaptVoltage != tc.volt) {
			t.Errorf("%s: daemon adapts placement %t, voltage %t", tc.mode, cfg.AdaptPlacement, cfg.AdaptVoltage)
		}
		s.exec("submit CG 8")
		s.exec("run 5")
		if !strings.Contains(out.String(), "t=5.0s") {
			t.Errorf("%s: run did not advance the clock:\n%s", tc.mode, out.String())
		}
	}
	if _, err := newSession(chip.XGene3Spec(), "turbo", io.Discard); !errors.Is(err, experiments.ErrUnknownPolicy) {
		t.Errorf("unknown mode: err = %v, want ErrUnknownPolicy", err)
	}
}

// TestRunRefusesUnboundedWindow checks that a run past the tick counter's
// range is refused at once, with an error and the clock where it was,
// instead of stepping until the process is killed.
func TestRunRefusesUnboundedWindow(t *testing.T) {
	var out bytes.Buffer
	s := mustSession(t, "optimal", &out)
	s.exec("submit CG 8")
	s.exec("run 1")
	ticks := s.m.Ticks()
	for _, w := range []string{"1e300", "inf", "nan"} {
		out.Reset()
		done := make(chan bool)
		go func() { done <- s.exec("run " + w) }()
		select {
		case quit := <-done:
			if quit {
				t.Fatalf("run %s ended the session", w)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("run %s still running after 10 s", w)
		}
		if !strings.Contains(out.String(), "bad duration") {
			t.Errorf("run %s printed %q, want an error", w, out.String())
		}
		if got := s.m.Ticks(); got != ticks {
			t.Errorf("run %s moved the clock from tick %d to %d", w, ticks, got)
		}
	}
	out.Reset()
	s.exec("run 1")
	if !strings.Contains(out.String(), "t=2.0s") {
		t.Errorf("session unusable after a refused run: %q", out.String())
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
