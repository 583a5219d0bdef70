package experiments

import (
	"reflect"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/sim"
	"avfs/internal/stateeq"
	"avfs/internal/trace"
	"avfs/internal/wlgen"
)

// sampleBoundedEvaluate is the reference for evaluate's recorder: the
// Fig. 14/15 recorder registered after the stack, bounded by its next
// sample time, so every 1-s sample ends a coalesced batch.
func sampleBoundedEvaluate(t *testing.T, spec *chip.Spec, wl *wlgen.Workload, cfg SystemConfig) (EvalResult, *sim.Machine, *Stack) {
	t.Helper()
	m := sim.New(spec)
	res := EvalResult{Config: cfg, Chip: spec}
	stack, err := NewStack(m, cfg, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(1.0)
	trackFigures(rec, m, stack, cfg, &res)
	m.OnTickBounded(func(mm *sim.Machine, _ int) { rec.Tick(mm.Now()) }, rec.NextSampleTime)
	if err := replayArrivals(m, wl, cfg.String()); err != nil {
		t.Fatal(err)
	}
	return res, m, stack
}

// TestRecorderInsideBatchesMatchesSampleBounded: taking the samples that
// fall inside a batch from the committed state records the same Fig.
// 14/15 points as ending a batch at every sample, and leaves every other
// observable equal bit for bit, energies included, on both chips under
// all four configurations, with fewer commits.
func TestRecorderInsideBatchesMatchesSampleBounded(t *testing.T) {
	for _, spec := range []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} {
		for _, seed := range []int64{42, 43} {
			wl := wlgen.Generate(spec, wlgen.Config{Duration: 600}, seed)
			for _, cfg := range SystemConfigs() {
				label := spec.Name + "/" + cfg.String()
				ref, refM, refS := sampleBoundedEvaluate(t, spec, wl, cfg)
				got, s, err := evaluate(sim.New(spec), wl, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, pair := range [][2]*trace.Series{
					{got.Power, ref.Power}, {got.Load, ref.Load},
					{got.CPUProcs, ref.CPUProcs}, {got.MemProcs, ref.MemProcs},
				} {
					if n := pair[1].Len(); n < 600 {
						t.Fatalf("%s: precondition: %d %s samples", label, n, pair[1].Name)
					}
					if !reflect.DeepEqual(pair[0].Points(), pair[1].Points()) {
						t.Errorf("%s seed %d: %s series diverged from the sample-bounded replay", label, seed, pair[0].Name)
					}
				}
				if d := stateeq.Diff(sessionState(t, refS), sessionState(t, s), strategyOnly); d != "" {
					t.Errorf("%s seed %d: replay diverged from the sample-bounded one: %s", label, seed, d)
				}
				commits, refCommits := s.M.Ticks()-s.M.CoalescedTicks(), refM.Ticks()-refM.CoalescedTicks()
				if commits >= refCommits {
					t.Errorf("%s seed %d: %d commits, sample-bounded reference %d", label, seed, commits, refCommits)
				}
			}
		}
	}
}
