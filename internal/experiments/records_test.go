package experiments

import (
	"math"
	"slices"
	"testing"

	"avfs/internal/chip"
	"avfs/internal/power"
	"avfs/internal/sim"
	"avfs/internal/snapshot"
	"avfs/internal/wlgen"
)

// finish is what an OnFinish hook sees of one finished process, folded
// the way the machine folds it. A *Process exposes its core energy only in
// joules, so the record's fixed-point energy stays zero and the joules
// ride beside it.
type finish struct {
	rec    sim.Record
	joules float64
}

// finishOracle records every process the machine finishes from the live
// *Process its OnFinish hook is handed.
type finishOracle struct {
	fins []finish
}

// attachFinishOracle starts recording on m after the finishes in base
// (nil for a fresh machine). It registers after the control stack, as the
// last finish callback.
func attachFinishOracle(t *testing.T, m *sim.Machine, base []finish) *finishOracle {
	o := &finishOracle{fins: slices.Clone(base)}
	m.OnFinish(func(p *sim.Process) {
		if p.State != sim.Finished || len(p.Cores()) != 0 || p.Completed != m.Now() || m.ProcessByID(p.ID) != nil {
			t.Errorf("process %d handed to OnFinish as %v on cores %v, completed %v at %v",
				p.ID, p.State, p.Cores(), p.Completed, m.Now())
		}
		o.fins = append(o.fins, finish{
			rec: sim.Record{ID: p.ID, Bench: p.Bench.Name, Threads: len(p.Threads),
				Submitted: p.Submitted, Started: p.Started, Completed: p.Completed},
			joules: p.CoreEnergy(),
		})
	})
	return o
}

// sameRecord reports whether two records agree bit for bit.
func sameRecord(a, b sim.Record) bool {
	return a.ID == b.ID && a.Bench == b.Bench && a.Threads == b.Threads && a.CoreEnergy == b.CoreEnergy &&
		math.Float64bits(a.Submitted) == math.Float64bits(b.Submitted) &&
		math.Float64bits(a.Started) == math.Float64bits(b.Started) &&
		math.Float64bits(a.Completed) == math.Float64bits(b.Completed)
}

// checkRecords fails t unless got is the newest len(got) finishes of the
// oracle, bit for bit, and holds all of them unless limit bounds it.
func checkRecords(t *testing.T, label string, got []sim.Record, fins []finish, limit int) {
	t.Helper()
	want := len(fins)
	if limit > 0 {
		want = min(want, limit)
	}
	if len(got) != want {
		t.Fatalf("%s: %d records, oracle saw %d finishes (limit %d)", label, len(got), len(fins), limit)
	}
	for i, r := range got {
		f := fins[len(fins)-len(got)+i]
		bare := r
		bare.CoreEnergy = power.Joules{}
		if !sameRecord(bare, f.rec) || math.Float64bits(r.CoreEnergy.J()) != math.Float64bits(f.joules) {
			t.Fatalf("%s: record %d = %+v (%v J), the finish hook saw %+v (%v J)",
				label, i, r, r.CoreEnergy.J(), f.rec, f.joules)
		}
	}
}

// TestFinishedRecordsMatchFinishOracle: the records a machine keeps of its
// finished processes equal, bit for bit, what an OnFinish hook saw of each
// live *Process as it finished, on seeded Baseline and Optimal runs on
// both chips, and across a restore, a history-bounded fork, a what-if
// branch under the other policy and a migration (the snapshot's bytes
// decoded as a peer node does). The restored and migrated machines also
// keep exactly the uninterrupted run's records.
func TestFinishedRecordsMatchFinishOracle(t *testing.T) {
	const capAt, end, forkLimit = 150.0, 300.0, 4
	for _, spec := range []*chip.Spec{chip.XGene2Spec(), chip.XGene3Spec()} {
		wl := wlgen.Generate(spec, wlgen.Config{Duration: end}, 11)
		for _, cfg := range []SystemConfig{Baseline, Optimal} {
			label := spec.Name + "/" + cfg.String()
			start := func() (*Stack, *arrivalDriver) {
				s, err := NewStack(sim.New(spec), cfg, 0, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				return s, &arrivalDriver{wl: wl}
			}
			restore := func(st *snapshot.SessionState) *Stack {
				s, err := RestoreStack(st, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}

			ref, a := start()
			ro := attachFinishOracle(t, ref.M, nil)
			a.drive(t, ref.M, end)
			checkRecords(t, label+" uninterrupted", ref.M.Finished(), ro.fins, 0)
			want := ref.M.Finished()

			orig, a := start()
			o := attachFinishOracle(t, orig.M, nil)
			a.drive(t, orig.M, capAt)
			st := &snapshot.SessionState{Model: spec.Model.Name()}
			for orig.Capture(st) != nil {
				a.drive(t, orig.M, orig.M.Now()+orig.M.Tick) // a transition is in flight
			}
			st.Machine = orig.M.CaptureState()
			if len(st.Machine.Finished) == 0 || len(st.Machine.Processes) == 0 {
				t.Fatalf("%s: precondition: capture holds %d records and %d live processes",
					label, len(st.Machine.Finished), len(st.Machine.Processes))
			}
			checkRecords(t, label+" at capture", st.Machine.Finished, o.fins, 0)
			_, payload, err := snapshot.Encode(st)
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := snapshot.Decode(payload)
			if err != nil {
				t.Fatal(err)
			}

			other := Optimal
			if cfg == Optimal {
				other = Baseline
			}
			for _, v := range []struct {
				name  string
				st    *snapshot.SessionState
				limit int
				cfg   SystemConfig
			}{
				{"restored", st, 0, cfg},
				{"bounded fork", st, forkLimit, cfg},
				{"what-if branch", st, 0, other},
				{"migrated", decoded, 0, cfg},
			} {
				s := restore(v.st)
				s.M.SetHistoryLimit(v.limit)
				if err := s.Apply(v.cfg); err != nil {
					t.Fatal(err)
				}
				so := attachFinishOracle(t, s.M, o.fins)
				sa := *a
				sa.drive(t, s.M, end)
				what := label + " " + v.name
				checkRecords(t, what, s.M.Finished(), so.fins, v.limit)
				if s.M.FinishedCount() != len(so.fins) {
					t.Fatalf("%s: %d finished, oracle saw %d", what, s.M.FinishedCount(), len(so.fins))
				}
				if v.cfg == cfg && v.limit == 0 {
					got := s.M.Finished()
					if len(got) != len(want) {
						t.Fatalf("%s: %d records, uninterrupted run %d", what, len(got), len(want))
					}
					for i := range want {
						if !sameRecord(got[i], want[i]) {
							t.Fatalf("%s: record %d = %+v, uninterrupted run %+v", what, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
