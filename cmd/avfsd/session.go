package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"avfs/internal/chip"
	"avfs/internal/daemon"
	"avfs/internal/droop"
	"avfs/internal/experiments"
	"avfs/internal/sim"
	"avfs/internal/slimpro"
	"avfs/internal/sysfs"
	"avfs/internal/telemetry"
	texport "avfs/internal/telemetry/export"
	"avfs/internal/workload"
)

// session is one interactive daemon instance: a machine under its
// control stack, management controller, virtual sysfs and the telemetry
// plane, with every command writing to out. Factoring it out of main
// keeps the scripted-session tests on exactly the code path the CLI runs.
type session struct {
	m      *sim.Machine
	stack  *experiments.Stack
	fs     *sysfs.FS
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	jsonl  *texport.JSONL
	out    io.Writer
}

// newSession builds a fully wired session under mode: a Table IV
// configuration (experiments.ParseSystemConfig) or "monitor", the Optimal
// daemon adapting neither placement nor voltage. The SLIMpro controller
// registers its metrics beside the stack's, and sysfs exposes the
// registry as read-only nodes.
func newSession(spec *chip.Spec, mode string, out io.Writer) (*session, error) {
	monitor := mode == "monitor"
	if monitor {
		mode = "optimal"
	}
	cfg, err := experiments.ParseSystemConfig(mode)
	if err != nil {
		return nil, err
	}
	m := sim.New(spec)
	m.EnableEventLog()
	reg, tracer := telemetry.NewRegistry(), telemetry.NewTracer()
	stack, err := experiments.NewStack(m, cfg, 0, reg, tracer)
	if err == nil && monitor {
		dc := stack.D.Cfg
		dc.AdaptPlacement, dc.AdaptVoltage = false, false
		err = stack.D.Reconfigure(dc)
	}
	if err != nil {
		return nil, err
	}
	slimpro.Attach(m).Instrument(reg)
	fs := sysfs.New(m)
	fs.AttachTelemetry(reg)
	return &session{m: m, stack: stack, fs: fs, reg: reg, tracer: tracer, out: out}, nil
}

// streamJSONL attaches a JSONL decision-trace sink (the -telemetry flag).
func (s *session) streamJSONL(w io.Writer) {
	s.jsonl = texport.NewJSONL(w)
	s.jsonl.Attach(s.tracer)
}

// close flushes any attached trace stream.
func (s *session) close() {
	if s.jsonl != nil {
		if err := s.jsonl.Flush(); err != nil {
			fmt.Fprintln(s.out, "telemetry stream:", err)
		}
	}
}

// exec runs one command line, returning true when the session should end.
func (s *session) exec(line string) bool {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return false
	}
	switch fields[0] {
	case "quit", "exit":
		return true
	case "bench":
		for _, b := range workload.All() {
			cls := "cpu"
			if b.MemoryIntensive() {
				cls = "memory"
			}
			fmt.Fprintf(s.out, "  %-14s %-18s %s-intensive\n", b.Name, b.Suite, cls)
		}
	case "submit":
		s.cmdSubmit(fields)
	case "run":
		s.cmdRun(fields)
	case "status":
		s.printStatus()
	case "stats":
		s.printStats()
	case "trace":
		s.cmdTrace(fields)
	case "dump":
		s.cmdDump(fields)
	case "log":
		s.cmdLog(fields)
	case "sysfs":
		s.cmdSysfs(fields)
	default:
		fmt.Fprintln(s.out, "commands: submit, run, status, stats, trace, dump, log, sysfs, bench, quit")
	}
	return false
}

func (s *session) cmdSubmit(fields []string) {
	if len(fields) != 3 {
		fmt.Fprintln(s.out, "usage: submit <benchmark> <threads>")
		return
	}
	b, err := workload.ByName(fields[1])
	if err != nil {
		fmt.Fprintln(s.out, err)
		return
	}
	n, err := strconv.Atoi(fields[2])
	if err != nil {
		fmt.Fprintln(s.out, "bad thread count:", fields[2])
		return
	}
	p, err := s.m.Submit(b, n)
	if err != nil {
		fmt.Fprintln(s.out, err)
		return
	}
	fmt.Fprintf(s.out, "submitted process %d (%s, %d threads)\n", p.ID, b.Name, n)
}

func (s *session) cmdRun(fields []string) {
	if len(fields) != 2 {
		fmt.Fprintln(s.out, "usage: run <seconds>")
		return
	}
	sec, err := strconv.ParseFloat(fields[1], 64)
	if err != nil || !(sec > 0) {
		fmt.Fprintln(s.out, "bad duration:", fields[1])
		return
	}
	if err := sim.CheckAdvance(s.m.Ticks(), s.m.Tick, sec); err != nil {
		fmt.Fprintln(s.out, "bad duration:", err)
		return
	}
	s.m.RunFor(sec)
	fmt.Fprintf(s.out, "t=%.1fs\n", s.m.Now())
}

func (s *session) cmdTrace(fields []string) {
	if len(fields) != 2 || (fields[1] != "on" && fields[1] != "off") {
		fmt.Fprintln(s.out, "usage: trace on|off")
		return
	}
	s.tracer.SetEnabled(fields[1] == "on")
	fmt.Fprintf(s.out, "decision trace %s\n", fields[1])
}

func (s *session) cmdDump(fields []string) {
	if len(fields) != 2 {
		fmt.Fprintln(s.out, "usage: dump <file>")
		return
	}
	f, err := os.Create(fields[1])
	if err != nil {
		fmt.Fprintln(s.out, err)
		return
	}
	err = texport.Prometheus(f, s.reg)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(s.out, err)
		return
	}
	fmt.Fprintf(s.out, "metrics dumped to %s\n", fields[1])
}

func (s *session) cmdLog(fields []string) {
	n := 20
	if len(fields) == 2 {
		if v, err := strconv.Atoi(fields[1]); err == nil && v > 0 {
			n = v
		}
	}
	events := s.m.Events()
	if len(events) > n {
		events = events[len(events)-n:]
	}
	for _, e := range events {
		fmt.Fprintln(s.out, " ", e)
	}
}

func (s *session) cmdSysfs(fields []string) {
	if len(fields) == 2 {
		v, err := s.fs.Read(fields[1])
		if err != nil {
			fmt.Fprintln(s.out, err)
			return
		}
		fmt.Fprintln(s.out, v)
		return
	}
	for _, p := range s.fs.List() {
		v, _ := s.fs.Read(p)
		fmt.Fprintf(s.out, "  %-42s %s\n", p, v)
	}
}

// metric reads one scalar metric from the registry by canonical name.
func (s *session) metric(name string) float64 {
	v, _ := s.reg.Value(name)
	return v
}

// printStatus renders the machine/daemon/energy state. Every number on
// the summary lines comes from the telemetry registry, so the interactive
// view and the exported metrics cannot disagree; only the structural
// topology walk reads the machine directly.
func (s *session) printStatus() {
	avgW := 0.0
	if secs := s.m.Meter.Seconds(); secs > 0 {
		avgW = s.metric(telemetry.MetricEnergyJoules) / secs
	}
	fmt.Fprintf(s.out, "t=%.1fs  V=%vmV  droop class %v  busy cores %v/%d (%v PMDs)  die %.1fC\n",
		s.metric(telemetry.MetricSimSeconds),
		s.metric(telemetry.MetricVoltageMV),
		droop.MagnitudeClass(s.metric(telemetry.MetricDroopClass)),
		s.metric(telemetry.MetricBusyCores), s.m.Spec.Cores,
		s.metric(telemetry.MetricUtilizedPMDs),
		s.metric(telemetry.MetricTemperatureC))
	for p := 0; p < s.m.Spec.PMDs(); p++ {
		fmt.Fprintf(s.out, "  PMD%-2d %v", p, s.m.Chip.PMDFreq(chip.PMDID(p)))
		c0, c1 := s.m.Spec.CoresOf(chip.PMDID(p))
		for _, c := range []chip.CoreID{c0, c1} {
			if t := s.m.ThreadOn(c); t != nil {
				fmt.Fprintf(s.out, "  core%d:%s#%d(%.0f%%)", c, t.Proc.Bench.Name, t.Proc.ID, 100*t.Progress())
			}
		}
		fmt.Fprintln(s.out)
	}
	for _, p := range s.m.Running() {
		fmt.Fprintf(s.out, "  proc %d %-12s %v  cores %v\n", p.ID, p.Bench.Name, s.stack.D.ClassOf(p), p.Cores())
	}
	for _, p := range s.m.Pending() {
		fmt.Fprintf(s.out, "  proc %d %-12s pending\n", p.ID, p.Bench.Name)
	}
	fmt.Fprintf(s.out, "  energy %.1fJ  avg %.2fW  polls %v  migrations %v  vchanges %v  emergencies %v\n",
		s.metric(telemetry.MetricEnergyJoules), avgW,
		s.metric(daemon.MetricPolls),
		s.metric(daemon.MetricMigrations),
		s.metric(daemon.MetricVoltageChanges),
		s.metric(telemetry.MetricEmergencies))
}

// printStats lists every registry metric; histograms show count, sum and
// per-bucket observations.
func (s *session) printStats() {
	for _, smp := range s.reg.Gather() {
		if smp.Kind == telemetry.KindHistogram {
			fmt.Fprintf(s.out, "  %-52s count=%d sum=%.4g\n", smp.Full, int64(smp.Value), smp.Sum)
			for i, c := range smp.Buckets {
				if c == 0 {
					continue
				}
				le := "+Inf"
				if i < len(smp.Bounds) {
					le = strconv.FormatFloat(smp.Bounds[i], 'g', -1, 64)
				}
				fmt.Fprintf(s.out, "  %-52s   le=%s: %d\n", "", le, c)
			}
			continue
		}
		fmt.Fprintf(s.out, "  %-52s %v\n", smp.Full, smp.Value)
	}
}
