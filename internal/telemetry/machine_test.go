package telemetry_test

import (
	"testing"

	"avfs/internal/chip"
	"avfs/internal/daemon"
	"avfs/internal/ringbuf"
	"avfs/internal/sim"
	"avfs/internal/telemetry"
	"avfs/internal/workload"
)

func submit(t *testing.T, m *sim.Machine, bench string, threads int) *sim.Process {
	t.Helper()
	b, err := workload.ByName(bench)
	if err != nil {
		t.Fatalf("workload %s: %v", bench, err)
	}
	p, err := m.Submit(b, threads)
	if err != nil {
		t.Fatalf("submit %s: %v", bench, err)
	}
	return p
}

func TestWireMachineGauges(t *testing.T) {
	m := sim.New(chip.XGene3Spec())
	reg := telemetry.NewRegistry()
	telemetry.WireMachine(m, reg, nil)

	p := submit(t, m, "CG", 8)
	cores := make([]chip.CoreID, 8)
	for i := range cores {
		cores[i] = chip.CoreID(i)
	}
	if err := m.Place(p, cores); err != nil {
		t.Fatalf("place: %v", err)
	}
	m.RunFor(5)

	if v, ok := reg.Value(telemetry.MetricSimSeconds); !ok || v < 4.9 {
		t.Errorf("sim seconds = %v (ok=%v), want ~5", v, ok)
	}
	if v, ok := reg.Value(telemetry.MetricBusyCores); !ok || v != 8 {
		t.Errorf("busy cores = %v (ok=%v), want 8", v, ok)
	}
	if v, ok := reg.Value(telemetry.MetricUtilizedPMDs); !ok || v != 4 {
		t.Errorf("utilized PMDs = %v (ok=%v), want 4", v, ok)
	}
	if v, ok := reg.Value(telemetry.MetricVoltageMV); !ok || v <= 0 {
		t.Errorf("voltage = %v (ok=%v), want positive", v, ok)
	}
	if v, ok := reg.Value(telemetry.MetricEnergyJoules); !ok || v <= 0 {
		t.Errorf("energy = %v (ok=%v), want positive", v, ok)
	}
	if v, ok := reg.Value(telemetry.MetricEmergChecks); !ok || v <= 0 {
		t.Errorf("emergency checks = %v (ok=%v), want positive", v, ok)
	}
	// Per-PMD frequency gauges exist for the whole chip.
	spec := chip.XGene3Spec()
	for p := 0; p < spec.PMDs(); p++ {
		full := telemetry.MetricPMDFreqMHz + `{pmd="` + itoa(p) + `"}`
		if v, ok := reg.Value(full); !ok || v <= 0 {
			t.Errorf("%s = %v (ok=%v), want positive", full, v, ok)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [4]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestWireMachineEventCountersAndTrace(t *testing.T) {
	m := sim.New(chip.XGene3Spec())
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer()
	var traced []telemetry.Record
	tr.Subscribe(func(r telemetry.Record) { traced = append(traced, r) })
	telemetry.WireMachine(m, reg, tr)

	submit(t, m, "namd", 1)
	m.RunFor(2)

	full := telemetry.MetricMachineEvents + `{kind="` + sim.EvSubmit.String() + `"}`
	if v, ok := reg.Value(full); !ok || v != 1 {
		t.Errorf("submit event counter = %v (ok=%v), want 1", v, ok)
	}
	if len(traced) == 0 {
		t.Fatal("tracer received no machine events")
	}
	for _, r := range traced {
		d := r.Decision()
		if d.Kind != telemetry.DecMachineEvent {
			t.Errorf("machine-bus decision kind %v, want machine-event", d.Kind)
		}
		if d.Rule == "" {
			t.Error("machine event with empty rule (event kind)")
		}
	}
}

func TestWireMachineEnvelopeGauges(t *testing.T) {
	m := sim.New(chip.XGene2Spec())
	reg := telemetry.NewRegistry()
	telemetry.WireMachine(m, reg, nil)
	// XGene2 publishes the DividedLow rows of Table II too; every envelope
	// gauge must be a plausible rail voltage.
	n := 0
	for _, s := range reg.Gather() {
		if s.Name != telemetry.MetricVminEnvelope {
			continue
		}
		n++
		if s.Value < 700 || s.Value > 1100 {
			t.Errorf("envelope %s = %v mV out of range", s.Full, s.Value)
		}
	}
	if n != 12 { // 3 frequency classes x 4 droop classes
		t.Errorf("XGene2 publishes %d envelope gauges, want 12", n)
	}
}

// TestWiredVFTickZeroAlloc pins the traced stepping path at zero
// allocations: a tick that changes V/F on a wired machine, with a
// decision ring subscribed to the tracer, formats and allocates nothing.
func TestWiredVFTickZeroAlloc(t *testing.T) {
	m := sim.New(chip.XGene3Spec())
	tr := telemetry.NewTracer()
	ring := ringbuf.New[telemetry.Record](64)
	tr.Subscribe(ring.Append)
	telemetry.WireMachine(m, telemetry.NewRegistry(), tr)
	p := submit(t, m, "namd", 1)
	m.Place(p, []chip.CoreID{0})
	freqs := []chip.MHz{m.Spec.MaxFreq, m.Spec.HalfFreq()}
	volts := []chip.Millivolts{m.Spec.NominalMV, m.Spec.NominalMV - 10}
	i := 0
	step := func() {
		i++
		m.Chip.SetPMDFreq(0, freqs[i%2])
		m.Chip.SetVoltage(volts[i%2])
		m.Step()
	}
	for j := 0; j < 128; j++ {
		step() // fill the ring so its slots stop growing
	}
	head := ring.Head()
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("a traced V/F-changing tick allocates %.1f times, want 0", allocs)
	}
	if got := ring.Head() - head; got < 2*200 {
		t.Fatalf("ring received %d records over 200 V/F-changing ticks, want >= 400", got)
	}
}

// TestTracedDaemonPollZeroAlloc pins the daemon's classify decisions at
// zero allocations: steady polls of a loaded machine emit a classify
// record per process into a subscribed ring without allocating.
func TestTracedDaemonPollZeroAlloc(t *testing.T) {
	m := sim.New(chip.XGene3Spec())
	tr := telemetry.NewTracer()
	ring := ringbuf.New[telemetry.Record](64)
	tr.Subscribe(ring.Append)
	reg := telemetry.NewRegistry()
	telemetry.WireMachine(m, reg, tr)
	d := daemon.New(m, daemon.DefaultConfig())
	d.Instrument(reg, tr)
	d.Attach()
	for _, w := range []string{"mcf", "namd", "lbm"} {
		submit(t, m, w, 1)
	}
	m.RunFor(5) // placed, classified and settled
	head := ring.Head()
	if allocs := testing.AllocsPerRun(20, func() { m.RunFor(0.4) }); allocs != 0 {
		t.Errorf("a traced steady poll allocates %.1f times, want 0", allocs)
	}
	if ring.Head()-head < 3*20 {
		t.Fatalf("ring received %d records over 20 polls of 3 processes", ring.Head()-head)
	}
}
