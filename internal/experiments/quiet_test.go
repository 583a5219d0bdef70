package experiments

import (
	"math"
	"reflect"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/daemon"
	"avfs/internal/power"
	"avfs/internal/sim"
	"avfs/internal/snapshot"
	"avfs/internal/wlgen"
	"avfs/internal/workload"
)

// quietRun is a fresh machine under a Baseline or Safe Vmin stack. The
// reference run adds the oracle hook, whose boundary is the governor's
// next sample: every batch then stops at every sample, as it did before
// a quiet governor let batches cross them.
func quietRun(t *testing.T, spec *chip.Spec, cfg SystemConfig, ref bool) (*sim.Machine, *Stack) {
	t.Helper()
	m := sim.New(spec)
	s, err := NewStack(m, cfg, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref {
		m.OnTickBounded(nil, s.Base.Governor.NextSample)
	}
	return m, s
}

// replayPrint is every observable of a replay the quiet governor must
// keep, energies as their fixed-point integers.
type replayPrint struct {
	now                 float64
	ticks               uint64
	checks, emergencies int
	stats               daemon.Stats
	nextSample          float64
	freqs               []chip.MHz
	finished            []int
	started, completed  []float64
	counters            []sim.CoreCounters
	meter               power.MeterState
	coreEnergyBits      []uint64
}

func replayPrintOf(m *sim.Machine, s *Stack) replayPrint {
	p := replayPrint{
		now: m.Now(), ticks: m.Ticks(), checks: m.EmergencyChecks(), emergencies: m.EmergencyCount(),
		stats: s.D.Stats(), nextSample: s.Base.Governor.NextSample(), meter: m.Meter.State(),
	}
	for pmd := 0; pmd < m.Spec.PMDs(); pmd++ {
		p.freqs = append(p.freqs, m.Chip.PMDFreq(chip.PMDID(pmd)))
	}
	for _, pr := range m.Finished() {
		p.finished = append(p.finished, pr.ID)
		p.started = append(p.started, pr.Started)
		p.completed = append(p.completed, pr.Completed)
		p.coreEnergyBits = append(p.coreEnergyBits, math.Float64bits(pr.CoreEnergy.J()))
	}
	for c := 0; c < m.Spec.Cores; c++ {
		p.counters = append(p.counters, m.Counters(chip.CoreID(c)))
	}
	return p
}

// compareReplayPrints fails t unless got equals want bit for bit.
func compareReplayPrints(t *testing.T, label string, got, want replayPrint) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: replay diverged\n got %+v\nwant %+v", label, got, want)
	}
}

// quietPhases are the stretches of the oracle scenario: a busy stretch
// whose idle PMDs decay and go quiet, the completions, the decay of the
// PMDs they leave idle, a fully idle stretch, and a second load. quiet
// marks the phases that must end with the governor quiet.
var quietPhases = []struct {
	name  string
	quiet bool
	run   func(*sim.Machine) error
}{
	{"busy", true, func(m *sim.Machine) error {
		for _, a := range []struct {
			bench   string
			threads int
		}{{"namd", 1}, {"lbm", 1}, {"CG", 4}, {"mcf", 1}} {
			m.MustSubmit(workload.MustByName(a.bench), a.threads)
		}
		m.RunFor(15)
		return nil
	}},
	{"drain", false, func(m *sim.Machine) error { return m.RunUntilIdle(24 * 3600) }},
	{"idle decay", false, func(m *sim.Machine) error { m.RunFor(0.37); return nil }},
	{"fully idle", true, func(m *sim.Machine) error { m.RunFor(120); return nil }},
	{"second load", false, func(m *sim.Machine) error {
		m.MustSubmit(workload.MustByName("EP"), 2)
		m.MustSubmit(workload.MustByName("gcc"), 1)
		return m.RunUntilIdle(24 * 3600)
	}},
}

// TestQuietGovernorMatchesSampleBoundaries is the oracle for the quiet
// ondemand governor: letting a batch cross the samples that cannot move
// a frequency leaves every observable of Baseline and Safe Vmin on both
// chips equal to stopping at every sample, energies bit for bit, through
// busy, decaying and fully idle stretches, while committing far fewer
// batches.
func TestQuietGovernorMatchesSampleBoundaries(t *testing.T) {
	for _, spec := range []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} {
		for _, cfg := range []SystemConfig{Baseline, SafeVmin} {
			label := spec.Name + "/" + cfg.String()
			ref, refS := quietRun(t, spec, cfg, true)
			run, runS := quietRun(t, spec, cfg, false)
			for _, ph := range quietPhases {
				for _, m := range []*sim.Machine{ref, run} {
					if err := ph.run(m); err != nil {
						t.Fatalf("%s %s: %v", label, ph.name, err)
					}
				}
				if ph.quiet && !runS.Base.Governor.Quiet() {
					t.Errorf("%s %s: precondition: the phase must end quiet", label, ph.name)
				}
				compareReplayPrints(t, label+" "+ph.name, replayPrintOf(run, runS), replayPrintOf(ref, refS))
			}
			refCommits, runCommits := ref.Ticks()-ref.CoalescedTicks(), run.Ticks()-run.CoalescedTicks()
			if 2*runCommits > refCommits {
				t.Errorf("%s: %d commits, sample-bounded reference %d: quiet samples still end batches",
					label, runCommits, refCommits)
			}
		}
	}
}

// TestQuietGovernorRestoreMatchesContinuous: quietness is a function of
// the machine, not snapshot state, so a session snapshotted while the
// governor is quiet batches exactly as the continuous run does and lands
// on the same bits, energies included.
func TestQuietGovernorRestoreMatchesContinuous(t *testing.T) {
	for _, spec := range []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} {
		for _, cfg := range []SystemConfig{Baseline, SafeVmin} {
			label := spec.Name + "/" + cfg.String()
			cont, contS := quietRun(t, spec, cfg, false)
			if err := quietPhases[0].run(cont); err != nil {
				t.Fatal(err)
			}
			if !contS.Base.Governor.Quiet() || cont.RunningCount() == 0 {
				t.Fatalf("%s: precondition: the snapshot must be taken busy and quiet", label)
			}
			st := &snapshot.SessionState{Model: spec.Model.Name(), Machine: cont.CaptureState()}
			if err := contS.Capture(st); err != nil {
				t.Fatal(err)
			}
			_, payload, err := snapshot.Encode(st)
			if err != nil {
				t.Fatal(err)
			}
			if st, err = snapshot.Decode(payload); err != nil {
				t.Fatal(err)
			}
			s, err := RestoreStack(st, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			m := s.M
			for _, ph := range quietPhases[1:] {
				for _, mm := range []*sim.Machine{cont, m} {
					if err := ph.run(mm); err != nil {
						t.Fatalf("%s %s: %v", label, ph.name, err)
					}
				}
				compareReplayPrints(t, label+" restored, "+ph.name, replayPrintOf(m, s), replayPrintOf(cont, contS))
			}
		}
	}
}

// TestReplayCommitCounts pins the commits (Ticks()-CoalescedTicks()) of
// the seed-42 one-hour Table III/IV replays, so a tick-boundary
// regression shows up as a count rather than as timing noise. The
// daemon's configurations are exact; Baseline and Safe Vmin are bounded
// (they are 8,026 on X-Gene 2 and 17,756 on X-Gene 3 when every 1-s
// Fig. 14/15 sample ends a batch).
func TestReplayCommitCounts(t *testing.T) {
	for _, tc := range []struct {
		spec             *chip.Spec
		daemon, baseline uint64
	}{
		{chip.XGene2Spec(), 12557, 4402},
		{chip.XGene3Spec(), 19110, 14208},
	} {
		wl := wlgen.Generate(tc.spec, wlgen.Config{Duration: 3600}, 42)
		for _, cfg := range SystemConfigs() {
			_, s, err := evaluate(sim.New(tc.spec), wl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			commits := s.M.Ticks() - s.M.CoalescedTicks()
			switch cfg {
			case Placement, Optimal:
				if commits != tc.daemon {
					t.Errorf("%s %v: %d commits, want exactly %d", tc.spec.Name, cfg, commits, tc.daemon)
				}
			default:
				if commits > tc.baseline {
					t.Errorf("%s %v: %d commits, want at most %d", tc.spec.Name, cfg, commits, tc.baseline)
				}
			}
		}
	}
}
