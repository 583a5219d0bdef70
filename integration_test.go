package avfs

import (
	"strconv"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/daemon"
	"avfs/internal/perfmon"
	"avfs/internal/sim"
	"avfs/internal/sysfs"
	"avfs/internal/wlgen"
	"avfs/internal/workload"
)

// Integration tests drive cross-module flows end to end: the daemon
// controlling a machine observed through sysfs and PMU counters, the
// full evaluation pipeline, and consistency between the layers.

// TestSysfsObservesDaemonActions checks that everything the daemon does is
// visible through the emulated kernel interfaces, exactly as an operator
// tool on the real server would see it.
func TestSysfsObservesDaemonActions(t *testing.T) {
	m := sim.New(chip.XGene3Spec())
	fs := sysfs.New(m)
	d := daemon.New(m, daemon.DefaultConfig())
	d.Attach()

	cg := m.MustSubmit(workload.MustByName("CG"), 4)
	m.RunFor(2)
	if d.ClassOf(cg) != daemon.MemoryIntensive {
		t.Fatal("precondition: CG memory-intensive")
	}

	// The daemon's voltage decision is visible on the SLIMpro node.
	vStr, err := fs.Read("slimpro/pcp_voltage_mv")
	if err != nil {
		t.Fatal(err)
	}
	v, _ := strconv.Atoi(vStr)
	if chip.Millivolts(v) != m.Chip.Voltage() {
		t.Errorf("sysfs voltage %v != chip voltage %v", v, m.Chip.Voltage())
	}
	if v >= int(m.Spec.NominalMV) {
		t.Errorf("daemon left voltage at %vmV; expected an undervolt", v)
	}

	// The memory PMDs' reduced frequency is visible on cpufreq nodes.
	pmd := m.Spec.PMDOf(cg.Cores()[0])
	fStr, err := fs.Read("cpu/cpufreq/policy" + strconv.Itoa(int(pmd)) + "/scaling_cur_freq")
	if err != nil {
		t.Fatal(err)
	}
	khz, _ := strconv.Atoi(fStr)
	if chip.MHz(khz/1000) != m.Spec.HalfFreq() {
		t.Errorf("sysfs frequency %d kHz, want half speed", khz)
	}
}

// TestExternalClassifierAgreesWithDaemon runs an independent observer using
// the same kernel-module protocol as the daemon and checks both reach the
// same classification for every running process.
func TestExternalClassifierAgreesWithDaemon(t *testing.T) {
	m := sim.New(chip.XGene3Spec())
	d := daemon.New(m, daemon.DefaultConfig())
	d.Attach()
	pmu := &perfmon.PMU{M: m}
	sampler := perfmon.DeltaSampler{PMU: pmu}

	procs := []*sim.Process{
		m.MustSubmit(workload.MustByName("lbm"), 1),
		m.MustSubmit(workload.MustByName("povray"), 1),
		m.MustSubmit(workload.MustByName("milc"), 1),
		m.MustSubmit(workload.MustByName("sjeng"), 1),
	}
	m.RunFor(2) // placement settles, daemon classifies

	samples := make(map[*sim.Process]*perfmon.Sample)
	for _, p := range procs {
		samples[p] = sampler.Open(p.Cores())
	}
	m.RunFor(1)
	for _, p := range procs {
		meas := samples[p].Close()
		external := meas.L3CPer1M(len(p.Cores())) >= workload.MemoryIntensiveThreshold
		daemonSays := d.ClassOf(p) == daemon.MemoryIntensive
		if external != daemonSays {
			t.Errorf("%s: external classifier %v, daemon %v", p.Bench.Name, external, daemonSays)
		}
	}
}

// TestFullPipelineConsistency cross-checks the evaluation pipeline's
// outputs against the machine-level ground truth on a small workload.
func TestFullPipelineConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline run in -short mode")
	}
	spec := chip.XGene3Spec()
	wl := wlgen.Generate(spec, wlgen.Config{Duration: 300}, 9)
	res, err := Evaluate(XGene3, wl, Optimal)
	if err != nil {
		t.Fatal(err)
	}
	// The power trace's mean must agree with the meter-derived average.
	if m := res.Power.Mean(); m < res.AvgPowerW*0.9 || m > res.AvgPowerW*1.1 {
		t.Errorf("power trace mean %.2fW vs meter average %.2fW", m, res.AvgPowerW)
	}
	// Energy must equal avg power × time.
	if e := res.AvgPowerW * res.TimeSec; e < res.EnergyJ*0.999 || e > res.EnergyJ*1.001 {
		t.Errorf("energy %.1fJ inconsistent with %.2fW × %.0fs", res.EnergyJ, res.AvgPowerW, res.TimeSec)
	}
	// ED2P definition.
	if res.ED2P != res.EnergyJ*res.TimeSec*res.TimeSec {
		t.Error("ED2P definition violated")
	}
	// The load trace peaks within the core count.
	if res.Load.Max() > float64(spec.Cores) {
		t.Errorf("load peak %.0f exceeds %d cores", res.Load.Max(), spec.Cores)
	}
}

// TestDaemonOnAgedMachineEndToEnd exercises the aging extension through
// the facade: a 5-year-old machine with an age-aware guard stays safe.
func TestDaemonOnAgedMachineEndToEnd(t *testing.T) {
	s := newStack(t, XGene2, Optimal)
	m := s.M
	m.SetVminDrift(16) // ≈ 5 years on the X-Gene 2 aging model
	cfg := OptimalDaemonConfig()
	cfg.GuardMV = 16 + Spec(XGene2).VoltageStep
	if err := s.D.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"lbm", "namd", "CG"} {
		b := benchmark(t, name)
		n := 1
		if b.Parallel {
			n = 4
		}
		m.MustSubmit(b, n)
	}
	if err := m.RunUntilIdle(3600); err != nil {
		t.Fatal(err)
	}
	if n := len(m.Emergencies()); n != 0 {
		t.Fatalf("%d emergencies on the aged machine despite the age-aware guard", n)
	}
}
