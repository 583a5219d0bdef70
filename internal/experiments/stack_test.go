package experiments

import (
	"testing"

	"avfs/internal/chip"
	"avfs/internal/daemon"
	"avfs/internal/sim"
	"avfs/internal/stateeq"
	"avfs/internal/telemetry"
	"avfs/internal/wlgen"
	"avfs/internal/workload"
)

// TestOptimalStackMatchesBareDaemon pins what lets the public facade build
// through a Stack: an Optimal stack, with its disabled baseline and its
// telemetry wired to a registry and a subscribed tracer, runs bit for bit
// like the paper's daemon attached alone to a bare machine. Both chips run
// the quickstart mix and a 300 s generated workload; the machine and the
// daemon captures must not differ in any field.
func TestOptimalStackMatchesBareDaemon(t *testing.T) {
	// The quickstart example's mix: one parallel memory-intensive job, one
	// parallel CPU-intensive job and four single-threaded SPEC programs,
	// all submitted at time zero.
	quickstart := func(m *sim.Machine) error {
		for _, job := range []struct {
			name    string
			threads int
		}{{"CG", 8}, {"EP", 8}, {"namd", 1}, {"milc", 1}, {"gcc", 1}, {"lbm", 1}} {
			if _, err := m.Submit(workload.MustByName(job.name), job.threads); err != nil {
				return err
			}
		}
		return m.RunUntilIdle(3600)
	}
	for _, spec := range []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} {
		wl := wlgen.Generate(spec, wlgen.Config{Duration: 300}, 42)
		for _, run := range []struct {
			name  string
			drive func(*sim.Machine) error
		}{
			{"quickstart", quickstart},
			{"wlgen-300s", func(m *sim.Machine) error { return replayArrivals(m, wl, "wlgen") }},
		} {
			t.Run(spec.Name+"/"+run.name, func(t *testing.T) {
				bare := sim.New(spec)
				d := daemon.New(bare, daemon.DefaultConfig())
				d.Attach()
				if err := run.drive(bare); err != nil {
					t.Fatal(err)
				}

				tr := telemetry.NewTracer()
				records := 0
				tr.Subscribe(func(telemetry.Record) { records++ })
				s, err := NewStack(sim.New(spec), Optimal, 0, telemetry.NewRegistry(), tr)
				if err != nil {
					t.Fatal(err)
				}
				if err := run.drive(s.M); err != nil {
					t.Fatal(err)
				}
				if records == 0 || bare.FinishedCount() == 0 {
					t.Fatalf("precondition: the runs must finish work and trace it (finished %d, records %d)",
						bare.FinishedCount(), records)
				}

				if diff := stateeq.Diff(bare.CaptureState(), s.M.CaptureState()); diff != "" {
					t.Errorf("machine under the stack diverged from the bare daemon's: %s", diff)
				}
				want, err := d.CaptureState()
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.D.CaptureState()
				if err != nil {
					t.Fatal(err)
				}
				if diff := stateeq.Diff(want, got); diff != "" {
					t.Errorf("stack's daemon diverged from the bare daemon: %s", diff)
				}
			})
		}
	}
}
