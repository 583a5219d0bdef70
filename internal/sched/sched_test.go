package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/sim"
	"avfs/internal/stateeq"
	"avfs/internal/workload"
)

// stackState is the complete state of a run under the baseline stack:
// its machine's capture and the stack's.
func stackState(m *sim.Machine, b *Baseline) map[string]any {
	return map[string]any{"machine": m.CaptureState(), "baseline": b.CaptureState()}
}

// perTickOnly is the one field a per-tick oracle may differ in from a
// batched run: the count of coalesced ticks, which it keeps at 0.
const perTickOnly = "machine.coalesced"

func TestDefaultPlacerSpreadsAcrossPMDs(t *testing.T) {
	m := sim.New(chip.XGene3Spec())
	p := &DefaultPlacer{M: m}
	for i := 0; i < 4; i++ {
		m.MustSubmit(workload.MustByName("namd"), 1)
	}
	p.PlacePending()
	if n := len(m.Running()); n != 4 {
		t.Fatalf("%d processes placed, want 4", n)
	}
	if pmds := m.UtilizedPMDCount(); pmds != 4 {
		t.Errorf("default placement used %d PMDs for 4 tasks, want 4 (spread)", pmds)
	}
}

func TestDefaultPlacerFillsSiblingsWhenFull(t *testing.T) {
	m := sim.New(chip.XGene2Spec()) // 8 cores
	p := &DefaultPlacer{M: m}
	for i := 0; i < 8; i++ {
		m.MustSubmit(workload.MustByName("namd"), 1)
	}
	p.PlacePending()
	if n := len(m.Running()); n != 8 {
		t.Fatalf("%d placed, want 8", n)
	}
	if len(m.FreeCores()) != 0 {
		t.Error("all cores must be occupied")
	}
}

func TestDefaultPlacerFIFOBlocks(t *testing.T) {
	m := sim.New(chip.XGene2Spec())
	p := &DefaultPlacer{M: m}
	big := m.MustSubmit(workload.MustByName("CG"), 8)
	small := m.MustSubmit(workload.MustByName("namd"), 1)
	occupier := m.MustSubmit(workload.MustByName("EP"), 2)
	if err := m.Place(occupier, []chip.CoreID{0, 1}); err != nil {
		t.Fatal(err)
	}
	p.PlacePending()
	// big (8 threads) cannot fit while occupier holds 2 cores; FIFO
	// fairness must also keep small queued behind it.
	if big.State != sim.Pending || small.State != sim.Pending {
		t.Error("FIFO queue must block behind the oversized head")
	}
}

// TestBlockedHeadCoalesces: a FIFO head that cannot fit forces no
// tick-exact steps — the baseline stack coalesces up to the governor's
// samples while blocked — and the head is still placed on the very tick
// its cores free up, as with per-tick placement attempts.
func TestBlockedHeadCoalesces(t *testing.T) {
	run := func(coalesce bool) (*sim.Machine, *Baseline) {
		m := sim.New(chip.XGene2Spec())
		if !coalesce {
			m.OnTickBounded(nil, m.Now) // the per-tick oracle
		}
		b := NewBaseline(m)
		m.MustSubmit(workload.MustByName("EP"), 6)
		m.MustSubmit(workload.MustByName("namd"), 1)
		m.MustSubmit(workload.MustByName("gcc"), 1)
		big := m.MustSubmit(workload.MustByName("CG"), 8)
		m.MustSubmit(workload.MustByName("namd"), 1)
		m.RunFor(5)
		if big.State != sim.Pending || headFits(m) {
			t.Fatal("precondition: the CG head must be blocked at 5 s")
		}
		return m, b
	}
	serial, sb := run(false)
	batched, bb := run(true)
	if c := batched.CoalescedTicks(); c < 250 {
		t.Errorf("blocked baseline coalesced %d of 500 ticks, want most of them", c)
	}
	for _, m := range []*sim.Machine{serial, batched} {
		if err := m.RunUntilIdle(24 * 3600); err != nil {
			t.Fatal(err)
		}
	}
	if d := stateeq.Diff(stackState(serial, sb), stackState(batched, bb), perTickOnly); d != "" {
		t.Errorf("batched run diverged from per-tick placement attempts: %s", d)
	}
}

func TestDefaultPlacerParallelProcess(t *testing.T) {
	m := sim.New(chip.XGene3Spec())
	p := &DefaultPlacer{M: m}
	proc := m.MustSubmit(workload.MustByName("FT"), 8)
	p.PlacePending()
	if proc.State != sim.Running {
		t.Fatal("parallel process must be placed")
	}
	if got := len(proc.Cores()); got != 8 {
		t.Errorf("%d cores assigned, want 8", got)
	}
}

func TestOndemandRampsUpWhenBusy(t *testing.T) {
	m := sim.New(chip.XGene3Spec())
	g := NewOndemand(m)
	m.Chip.SetAllFreq(m.Spec.MinFreq)
	p := m.MustSubmit(workload.MustByName("namd"), 1)
	m.Place(p, []chip.CoreID{4})
	g.Tick()
	if got := m.Chip.PMDFreq(2); got != m.Spec.MaxFreq {
		t.Errorf("busy PMD2 at %v after governor tick, want max", got)
	}
	if got := m.Chip.PMDFreq(3); got != m.Spec.MinFreq {
		t.Errorf("idle PMD3 at %v, want min (was min, stays)", got)
	}
}

func TestOndemandDecaysWhenIdle(t *testing.T) {
	m := sim.New(chip.XGene3Spec())
	g := NewOndemand(m)
	// All PMDs start at max; several governor periods of idleness must
	// decay them to the minimum.
	for i := 0; i < 10; i++ {
		g.nextSample = 0 // force an evaluation regardless of sim time
		g.Tick()
		m.RunFor(0.01)
	}
	for pmd := 0; pmd < m.Spec.PMDs(); pmd++ {
		if got := m.Chip.PMDFreq(chip.PMDID(pmd)); got != m.Spec.MinFreq {
			t.Fatalf("idle PMD%d at %v after decay, want min", pmd, got)
		}
	}
}

func TestOndemandSamplePeriod(t *testing.T) {
	m := sim.New(chip.XGene2Spec())
	g := NewOndemand(m)
	p := m.MustSubmit(workload.MustByName("namd"), 1)
	m.Place(p, []chip.CoreID{0})
	m.Chip.SetAllFreq(m.Spec.MinFreq)
	g.Tick() // evaluates at t=0
	if m.Chip.PMDFreq(0) != m.Spec.MaxFreq {
		t.Fatal("first tick must evaluate")
	}
	m.Chip.SetPMDFreq(0, m.Spec.MinFreq)
	g.Tick() // same sim time: inside the sample period, no evaluation
	if m.Chip.PMDFreq(0) != m.Spec.MinFreq {
		t.Error("governor must respect its sample period")
	}
}

func TestBaselineEndToEnd(t *testing.T) {
	m := sim.New(chip.XGene3Spec())
	NewBaseline(m)
	for _, name := range []string{"namd", "milc", "gcc", "CG"} {
		m.MustSubmit(workload.MustByName(name), 1)
	}
	if err := m.RunUntilIdle(24 * 3600); err != nil {
		t.Fatal(err)
	}
	if len(m.Finished()) != 4 {
		t.Fatalf("%d finished, want 4", len(m.Finished()))
	}
	if m.Chip.Voltage() != m.Spec.NominalMV {
		t.Error("baseline must never touch the voltage")
	}
	if len(m.Emergencies()) != 0 {
		t.Error("baseline at nominal voltage can never emergency")
	}
}

// TestOndemandQuiet: a sample is a no-op exactly when every busy PMD runs
// at the maximum frequency and every idle PMD has decayed to where its
// step clamps; the verdict follows placements and frequency writes.
func TestOndemandQuiet(t *testing.T) {
	m := sim.New(chip.XGene2Spec())
	g := NewOndemand(m)
	if g.Quiet() {
		t.Fatal("idle PMDs at the maximum frequency still decay: not quiet")
	}
	for i := 0; i < 4; i++ {
		g.nextSample = 0
		g.Tick()
	}
	if !g.Quiet() {
		t.Fatal("every idle PMD at the minimum frequency: quiet")
	}
	p := m.MustSubmit(workload.MustByName("namd"), 1)
	if err := m.Place(p, []chip.CoreID{2}); err != nil {
		t.Fatal(err)
	}
	if g.Quiet() {
		t.Fatal("a busy PMD below the maximum frequency jumps: not quiet")
	}
	g.nextSample = 0
	g.Tick()
	if !g.Quiet() {
		t.Fatal("busy PMD at the maximum, idle ones at the minimum: quiet")
	}
	m.Chip.SetPMDFreq(0, m.Spec.MaxFreq)
	if g.Quiet() {
		t.Fatal("an outside write raised an idle PMD: not quiet")
	}
}

// TestQuietBaselineMatchesSerial: while the governor is quiet the
// baseline stack lets a batch cross its sample instants, and replays
// their timing so the sample phase, the frequencies and the finish
// times equal serial stepping's, through busy, decaying and fully idle
// stretches.
func TestQuietBaselineMatchesSerial(t *testing.T) {
	run := func(coalesce bool) (*sim.Machine, *Baseline) {
		m := sim.New(chip.XGene2Spec())
		if !coalesce {
			m.OnTickBounded(nil, m.Now) // the per-tick oracle
		}
		b := NewBaseline(m)
		m.MustSubmit(workload.MustByName("namd"), 1)
		m.MustSubmit(workload.MustByName("lbm"), 1)
		m.MustSubmit(workload.MustByName("CG"), 2)
		return m, b
	}
	serial, sb := run(false)
	batched, bb := run(true)
	for _, d := range []float64{3.33, 20, 60, 200} {
		serial.RunFor(d)
		batched.RunFor(d)
		if diff := stateeq.Diff(stackState(serial, sb), stackState(batched, bb), perTickOnly); diff != "" {
			t.Fatalf("after %v s: %s", d, diff)
		}
	}
	if !bb.Governor.Quiet() || batched.RunningCount() != 0 || len(batched.Finished()) != 3 {
		t.Fatal("precondition: the run must end idle and quiet with all three programs finished")
	}
	// Idle and quiet, a batch is bounded by the max horizon, not by the
	// 0.1 s samples.
	if calls := batched.Ticks() - batched.CoalescedTicks(); calls > batched.Ticks()/50 {
		t.Errorf("%d commits for %d ticks: batches stop at quiet samples", calls, batched.Ticks())
	}
}

// TestRestoreRejectsUnreachableNextSample: serial stepping only sets a
// sample instant in [0, now+period]; restore rejects any other, so a
// snapshot cannot silence the ondemand governor or the power cap.
func TestRestoreRejectsUnreachableNextSample(t *testing.T) {
	m := sim.New(chip.XGene3Spec())
	b := NewBaseline(m)
	m.MustSubmit(workload.MustByName("namd"), 1)
	m.RunFor(1.234)
	st := b.CaptureState()
	if err := b.RestoreState(st); err != nil {
		t.Fatalf("restoring a captured state: %v", err)
	}
	g := NewPowerCap(m, 40)
	g.AttachGovernor()
	m.RunFor(0.5)
	cs := g.CaptureState()
	if _, err := RestorePowerCap(m, cs); err != nil {
		t.Fatalf("restoring a captured cap: %v", err)
	}
	now := m.Now()
	for _, next := range []float64{0, now, now + 0.01} {
		cs.NextSample = next
		if _, err := RestorePowerCap(m, cs); err != nil {
			t.Errorf("cap next sample %v rejected: %v", next, err)
		}
	}
	for _, next := range []float64{0, now, now + 0.1} {
		if err := b.RestoreState(BaselineState{NextSample: next}); err != nil {
			t.Errorf("baseline next sample %v rejected: %v", next, err)
		}
	}
	for _, next := range []float64{-1e-9, now + 0.2, 1e308, math.NaN(), math.Inf(1)} {
		if err := b.RestoreState(BaselineState{NextSample: next}); err == nil {
			t.Errorf("baseline next sample %v accepted", next)
		}
		cs.NextSample = next
		if _, err := RestorePowerCap(m, cs); err == nil {
			t.Errorf("cap next sample %v accepted", next)
		}
	}
	if b.Governor.NextSample() > now+0.1 {
		t.Errorf("a rejected restore wrote next sample %v", b.Governor.NextSample())
	}
}

// TestRestoreRejectsStallingCapSettings: a restored cap's sample period
// must be finite and at most 1 s (a non-positive one keeps the default),
// and its headroom must lie in (0, 1].
func TestRestoreRejectsStallingCapSettings(t *testing.T) {
	m := sim.New(chip.XGene3Spec())
	cs := NewPowerCap(m, 40).CaptureState()
	for _, period := range []float64{0, -1, 0.001, 1} {
		st := cs
		st.SamplePeriod = period
		if _, err := RestorePowerCap(m, st); err != nil {
			t.Errorf("sample period %v rejected: %v", period, err)
		}
	}
	for _, period := range []float64{1.001, 1e308, math.Inf(1), math.Inf(-1), math.NaN()} {
		st := cs
		st.SamplePeriod = period
		if _, err := RestorePowerCap(m, st); err == nil {
			t.Errorf("sample period %v accepted", period)
		}
	}
	for _, h := range []float64{1e-6, 0.5, 1} {
		st := cs
		st.Headroom = h
		if _, err := RestorePowerCap(m, st); err != nil {
			t.Errorf("headroom %v rejected: %v", h, err)
		}
	}
	for _, h := range []float64{0, -0.5, 1.0001, 1e308, math.Inf(1), math.NaN()} {
		st := cs
		st.Headroom = h
		if _, err := RestorePowerCap(m, st); err == nil {
			t.Errorf("headroom %v accepted", h)
		}
	}
}

// replaySamplesPerTick is the governor's batch replay as it was first
// written, testing the sample rule on every tick of [from, end): the
// oracle replaySamples' jumps must reproduce bit for bit.
func replaySamplesPerTick(next, period, dt float64, from, end uint64) float64 {
	for c := from; c < end; c++ {
		if now := float64(float64(c) * dt); now+1e-12 >= next {
			next = now + period
		}
	}
	return next
}

// TestReplaySamplesMatchesPerTick compares the jumping replay with the
// per-tick oracle over seeded tick lengths, periods, batch sizes and
// sample phases, including a sample due exactly on the batch's last tick
// and one just past it, early and late in a run.
func TestReplaySamplesMatchesPerTick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dts := []float64{0.01, 0.001, 0.0137, 0.25, 1e-4}
	for i := 0; i < 20000; i++ {
		dt := dts[rng.Intn(len(dts))]
		periods := []float64{0.1, 0.05, dt, dt / 2, 0.3333, 1, dt + 1e-13, 7 * dt}
		period := periods[rng.Intn(len(periods))]
		from := uint64(rng.Int63n(2_000_000))
		if rng.Intn(4) == 0 {
			// Late in a long run tick times are coarse: float64(c)*dt
			// moves by whole ulps, and estimates land off the boundary.
			from = 1<<52 - uint64(rng.Int63n(1<<50))
		}
		k := 1 + rng.Intn(3000)
		if rng.Intn(4) == 0 {
			k = 1 + rng.Intn(1<<16)
		}
		end := from + uint64(k-1)
		last := float64(float64(end-1) * dt)
		var next float64
		switch rng.Intn(6) {
		case 0:
			next = last + 1e-12 // due exactly on the last replayed tick
		case 1:
			next = last
		case 2:
			next = float64(float64(end)*dt) + 1e-12 // due just past the batch
		case 3:
			next = 0
		default:
			next = float64(float64(from)*dt) + (rng.Float64()*2-0.5)*period
		}
		want := replaySamplesPerTick(next, period, dt, from, end)
		if got := replaySamples(next, period, dt, from, end); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("dt=%v period=%v ticks [%d,%d) next=%v: got %v, want %v",
				dt, period, from, end, next, got, want)
		}
	}
}

// BenchmarkReplaySamples measures a quiet governor's batch replay at the
// default 10 ms tick and 0.1 s sample period, jumping and per tick, over
// batches of k ticks.
func BenchmarkReplaySamples(b *testing.B) {
	for _, k := range []uint64{10, 100, 1000} {
		for _, v := range []struct {
			name string
			fn   func(next, period, dt float64, from, end uint64) float64
		}{{"jump", replaySamples}, {"per-tick", replaySamplesPerTick}} {
			b.Run(fmt.Sprintf("k=%d/%s", k, v.name), func(b *testing.B) {
				next := 0.0
				for i := 0; i < b.N; i++ {
					from := uint64(i%1000) * k
					next = v.fn(next, 0.1, 0.01, from, from+k-1)
					if from+k >= 1000*k {
						next = 0
					}
				}
			})
		}
	}
}
