package sim

import (
	"fmt"
	"slices"

	"avfs/internal/chip"
	"avfs/internal/clock"
	"avfs/internal/power"
	"avfs/internal/workload"
)

// This file implements full machine state extraction and restoration — the
// simulator half of session snapshot/fork (ROADMAP item 1). The contract
// is bit-exactness: a machine restored from a snapshot and advanced over
// the same inputs commits the same ticks, the same integer counters and
// the same float trajectory as the uninterrupted original.
//
// The subtle part is the steady-state engine. While a machine sits in
// equilibrium it replays a frozen tick (steadyCache + the per-thread
// commit quanta in upds) instead of recomputing it; a restore that dropped
// the cache would recompute the next tick through stepFull's damped
// memory-utilization fixed point, whose extra iterations from the
// converged value can move the per-tick instruction quantum by a few ulps
// — enough to break bit-equality hours later. The snapshot therefore
// carries the cached tick and its quanta verbatim, re-keyed on restore to
// the rebuilt chip's generation counter.

// ThreadState is the serialized state of one Thread.
type ThreadState struct {
	Core             int     `json:"core"`
	InstrTotal       float64 `json:"instr_total"`
	InstrDone        float64 `json:"instr_done"`
	LastCPI          float64 `json:"last_cpi"`
	LastL2Infl       float64 `json:"last_l2_infl"`
	StallFrac        float64 `json:"stall_frac"`
	StalledUntilTick uint64  `json:"stalled_until_tick,omitempty"`
}

// ProcessState is the serialized state of one live (pending or running)
// Process, which has not completed. The benchmark is stored by catalog
// name and resolved through workload.ByName on restore.
type ProcessState struct {
	ID         int           `json:"id"`
	Bench      string        `json:"bench"`
	State      int           `json:"state"`
	Submitted  float64       `json:"submitted"`
	Started    float64       `json:"started"`
	CoreEnergy power.Joules  `json:"core_energy"`
	Threads    []ThreadState `json:"threads"`
}

// UpdState is the serialized form of one steady-tick commit quantum
// (see upd). Its thread is the one placed on Core, and the benchmark is
// re-resolved from that thread's process.
type UpdState struct {
	Core    int     `json:"core"`
	FGHz    float64 `json:"f_ghz"`
	L2Infl  float64 `json:"l2_infl"`
	CPI     float64 `json:"cpi"`
	Instr   float64 `json:"instr"`
	Cycles  float64 `json:"cycles"`
	CoreQ   uint64  `json:"core_q"`
	DCycles uint64  `json:"d_cycles"`
	DInstr  uint64  `json:"d_instr"`
	DL3C    uint64  `json:"d_l3c"`
}

// SteadyState is the serialized steady-state cache: the frozen tick the
// coalescing engine replays, captured only when it is live for the
// machine's current generations (a stale cache is equivalent to no cache
// — both sides would take the full path next tick).
type SteadyState struct {
	Watts   float64          `json:"watts"`
	Energy  power.TickEnergy `json:"energy"`
	EmCheck bool             `json:"em_check"`
	Upds    []UpdState       `json:"upds"`
}

// MachineState is the complete serializable state of a Machine. Every
// float64 survives the JSON round trip exactly (encoding/json emits the
// shortest representation that parses back to the same bits), and the
// energies travel as their fixed-point integers, so restore is
// bit-faithful.
type MachineState struct {
	// Identity, for restore-time validation.
	Model int     `json:"model"`
	Cores int     `json:"cores"`
	Tick  float64 `json:"tick"`

	Ticks  uint64 `json:"ticks"`
	NextID int    `json:"next_id"`

	VoltageMV  int   `json:"voltage_mv"`
	PMDFreqMHz []int `json:"pmd_freq_mhz"`
	// MirrorVoltageMV and MirrorFreqMHz are the V/F mirror, the levels
	// as of the last full tick (the chip's may be newer: a reprogram the
	// next full tick logs). Residency is each PMD's committed ticks per
	// frequency class, [pmd][clock.FreqClass] over the chip's classes;
	// every row sums to Ticks.
	MirrorVoltageMV int        `json:"mirror_voltage_mv"`
	MirrorFreqMHz   []int      `json:"mirror_freq_mhz"`
	Residency       [][]uint64 `json:"residency"`

	Meter     power.MeterState `json:"meter"`
	LastWatts float64          `json:"last_watts"`

	MemRho           float64 `json:"mem_rho"`
	EmChecks         int     `json:"em_checks"`
	VminDriftMV      int     `json:"vmin_drift_mv,omitempty"`
	MigrationPenalty float64 `json:"migration_penalty,omitempty"`
	PlaceGen         uint64  `json:"place_gen"`
	Coalesced        uint64  `json:"coalesced"`
	FinCheck         bool    `json:"fin_check,omitempty"`

	Emergencies []Emergency    `json:"emergencies,omitempty"`
	Counters    []CoreCounters `json:"counters"`

	// Processes are the live ones in ascending ID order; Finished holds
	// the retained history's records in completion order.
	Processes []ProcessState `json:"processes"`
	Finished  []Record       `json:"finished,omitempty"`

	// FinishedDropped and EmergenciesDropped count the history a bounded
	// machine trimmed (see SetHistoryLimit). Both are omitted when zero, so
	// a state that dropped nothing encodes exactly as before they existed.
	FinishedDropped    int `json:"finished_dropped,omitempty"`
	EmergenciesDropped int `json:"emergencies_dropped,omitempty"`

	// Steady is non-nil when the coalescing cache was live at capture.
	Steady *SteadyState `json:"steady,omitempty"`
}

// CaptureState extracts the machine's complete state. The machine is not
// modified; the returned state shares no memory with it.
func (m *Machine) CaptureState() *MachineState {
	st := &MachineState{
		Model:            int(m.Spec.Model),
		Cores:            m.Spec.Cores,
		Tick:             m.Tick,
		Ticks:            m.ticks,
		NextID:           m.nextID,
		VoltageMV:        int(m.Chip.Voltage()),
		Meter:            m.Meter.State(),
		LastWatts:        m.lastWatts,
		MemRho:           m.memRho,
		EmChecks:         m.emChecks,
		VminDriftMV:      int(m.vminDrift),
		MigrationPenalty: m.migrationPenalty,
		PlaceGen:         m.placeGen,
		Coalesced:        m.coalesced,
		FinCheck:         m.finCheck,
		Counters:         append([]CoreCounters(nil), m.counters...),
	}
	st.FinishedDropped, st.EmergenciesDropped = m.finDropped, m.emDropped
	st.MirrorVoltageMV = int(m.vf.v)
	classes := clock.Classes(m.Spec)
	for p, f := range m.vf.f {
		st.PMDFreqMHz = append(st.PMDFreqMHz, int(m.Chip.PMDFreq(chip.PMDID(p))))
		st.MirrorFreqMHz = append(st.MirrorFreqMHz, int(f))
		row := make([]uint64, len(classes))
		for _, fc := range classes {
			row[fc] = m.Residency(chip.PMDID(p), fc)
		}
		st.Residency = append(st.Residency, row)
	}
	if len(m.emergencies) > 0 {
		st.Emergencies = append([]Emergency(nil), m.emergencies...)
	}
	// Merge the two ID-ordered live lists into one.
	pend, run := m.pending, m.running
	st.Processes = make([]ProcessState, 0, len(pend)+len(run))
	for len(pend)+len(run) > 0 {
		var p *Process
		if len(run) == 0 || len(pend) > 0 && pend[0].ID < run[0].ID {
			p, pend = pend[0], pend[1:]
		} else {
			p, run = run[0], run[1:]
		}
		ps := ProcessState{
			ID:         p.ID,
			Bench:      p.Bench.Name,
			State:      int(p.State),
			Submitted:  p.Submitted,
			Started:    p.Started,
			CoreEnergy: p.coreEnergy,
			Threads:    make([]ThreadState, 0, len(p.Threads)),
		}
		for _, t := range p.Threads {
			ps.Threads = append(ps.Threads, ThreadState{
				Core:             int(t.Core),
				InstrTotal:       t.instrTotal,
				InstrDone:        t.instrDone,
				LastCPI:          t.lastCPI,
				LastL2Infl:       t.lastL2Infl,
				StallFrac:        t.stallFrac,
				StalledUntilTick: t.stalledUntilTick,
			})
		}
		st.Processes = append(st.Processes, ps)
	}
	st.Finished = slices.Clone(m.finished)
	// Capture the steady cache only while it is live for the current
	// generations and tick length; a stale cache fails steadyReady on
	// both sides, so dropping it preserves the trajectory.
	c := &m.steady
	if c.valid && c.tick == m.Tick && c.placeGen == m.placeGen && c.chipGen == m.Chip.Generation() {
		ss := &SteadyState{Watts: c.watts, Energy: c.energy, EmCheck: c.emCheck}
		for i := 0; i < c.n; i++ {
			u := &m.upds[i]
			ss.Upds = append(ss.Upds, UpdState{
				Core:    int(u.core),
				FGHz:    u.fGHz,
				L2Infl:  u.l2Infl,
				CPI:     u.cpi,
				Instr:   u.instr,
				Cycles:  u.cycles,
				CoreQ:   u.coreQ,
				DCycles: u.dCycles,
				DInstr:  u.dInstr,
				DL3C:    u.dL3C,
			})
		}
		st.Steady = ss
	}
	return st
}

// MaxTicks bounds a machine's tick count. The clock is float64(ticks)*Tick
// and the stepping loops count ticks up from it; past 2^53 the conversion
// is inexact, and near 2^64 the tick arithmetic wraps and never reaches
// its target.
const MaxTicks = 1 << 53

// MaxTick bounds the integration step in seconds, so one tick's energy
// fits a uint64 of power.Quantum below 2^24 W. With MaxTicks it also
// bounds every energy accumulator below MaxTicks<<64 quanta.
const MaxTick = 1.0

// CheckTick rejects an integration step that is not finite, positive and
// at most MaxTick.
func CheckTick(tick float64) error {
	if !(tick > 0 && tick <= MaxTick) {
		return fmt.Errorf("tick %v s outside (0, %v]", tick, MaxTick)
	}
	return nil
}

// CheckAdvance rejects an advance of seconds, from ticks steps of tick
// seconds, that takes the tick counter past MaxTicks (or is not a
// number): such a window has no simulated answer, and a run of it would
// step until cancelled. The conversion keeps the product from fusing
// with the add on architectures with fused multiply-add.
func CheckAdvance(ticks uint64, tick, seconds float64) error {
	if !((float64(float64(ticks)*tick)+seconds)/tick < MaxTicks) {
		return fmt.Errorf("a %g s window takes the tick counter past 2^53", seconds)
	}
	return nil
}

// energyInRange reports whether an accumulator holds no more than
// MaxTicks ticks of at most 2^64 quanta each can reach.
func energyInRange(j power.Joules) bool { return j.Hi < MaxTicks }

// checkVF rejects a V/F mirror no machine on spec holds: a wrong shape,
// a level off the chip's voltage or frequency grid, or a PMD whose class
// residencies do not sum to the tick count.
func checkVF(spec *chip.Spec, st *MachineState) error {
	if v := chip.Millivolts(st.MirrorVoltageMV); spec.ClampVoltage(v) != v ||
		len(st.MirrorFreqMHz) != spec.PMDs() || len(st.Residency) != spec.PMDs() {
		return fmt.Errorf("sim: snapshot V/F mirror (%d mV, %d PMDs, %d residency rows) does not fit the chip",
			st.MirrorVoltageMV, len(st.MirrorFreqMHz), len(st.Residency))
	}
	for p, f := range st.MirrorFreqMHz {
		row, sum := st.Residency[p], uint64(0)
		for _, n := range row {
			sum += min(n, st.Ticks+1)
		}
		if spec.ClampFreq(chip.MHz(f)) != chip.MHz(f) || len(row) != len(clock.Classes(spec)) || sum != st.Ticks {
			return fmt.Errorf("sim: snapshot PMD %d mirror (%d MHz, %d residency classes) does not fit the chip at %d ticks",
				p, f, len(row), st.Ticks)
		}
	}
	return nil
}

// RestoreMachine builds a machine on spec from a captured state. The
// restored machine has no hooks, subscribers or event log — the caller
// re-attaches its controller stack (in the same registration order as the
// original, for identical replay) after restoring. Benchmarks are
// resolved by name against the workload catalog.
func RestoreMachine(spec *chip.Spec, st *MachineState) (*Machine, error) {
	if int(spec.Model) != st.Model || spec.Cores != st.Cores {
		return nil, fmt.Errorf("sim: snapshot for model %d/%d cores, spec is %d/%d",
			st.Model, st.Cores, int(spec.Model), spec.Cores)
	}
	if err := CheckTick(st.Tick); err != nil {
		return nil, fmt.Errorf("sim: snapshot %w", err)
	}
	if st.Ticks >= MaxTicks {
		return nil, fmt.Errorf("sim: snapshot tick count %d out of range", st.Ticks)
	}
	// The history counts are exported as float64 metrics; past 2^53 they
	// would stop being exact.
	if st.NextID < 0 || int64(st.NextID) >= 1<<53 {
		return nil, fmt.Errorf("sim: snapshot next ID %d out of range", st.NextID)
	}
	if st.FinishedDropped < 0 || st.EmergenciesDropped < 0 || int64(st.EmergenciesDropped) >= 1<<53 {
		return nil, fmt.Errorf("sim: snapshot dropped counts %d/%d out of range",
			st.FinishedDropped, st.EmergenciesDropped)
	}
	mt := &st.Meter
	for _, j := range [...]power.Joules{mt.CoreDynamic, mt.PMDUncore, mt.L3Fabric, mt.MemCtl, mt.Leakage} {
		if !energyInRange(j) {
			return nil, fmt.Errorf("sim: snapshot meter energy out of range")
		}
	}
	if !(mt.PeakW >= 0) {
		return nil, fmt.Errorf("sim: snapshot peak power %v out of range", mt.PeakW)
	}
	if len(st.Counters) != spec.Cores || len(st.PMDFreqMHz) != spec.PMDs() {
		return nil, fmt.Errorf("sim: snapshot shape mismatch (counters=%d pmds=%d)",
			len(st.Counters), len(st.PMDFreqMHz))
	}
	if err := checkVF(spec, st); err != nil {
		return nil, err
	}
	m := New(spec)
	m.Tick = st.Tick
	m.ticks = st.Ticks
	m.now = float64(st.Ticks) * st.Tick
	m.nextID = st.NextID
	m.lastWatts = st.LastWatts
	m.memRho = st.MemRho
	m.emChecks = st.EmChecks
	m.vminDrift = chip.Millivolts(st.VminDriftMV)
	m.migrationPenalty = st.MigrationPenalty
	m.placeGen = st.PlaceGen
	m.coalesced = st.Coalesced
	m.finCheck = st.FinCheck
	copy(m.counters, st.Counters)
	if len(st.Emergencies) > 0 {
		m.emergencies = append([]Emergency(nil), st.Emergencies...)
	}
	m.emDropped = st.EmergenciesDropped
	m.finDropped = st.FinishedDropped
	m.Meter.Restore(st.Meter, st.Ticks, st.Tick)

	// Electrical state. The captured values were read from a live chip, so
	// they are already clamped and on the frequency grid; the setters
	// bump the generation, which every restored cache is re-keyed to.
	m.Chip.SetVoltage(chip.Millivolts(st.VoltageMV))
	for p, f := range st.PMDFreqMHz {
		m.Chip.SetPMDFreq(chip.PMDID(p), chip.MHz(f))
	}
	// The mirror resumes with its open span starting here, and one diff
	// owed: a generation the chip does not hold makes the next full tick
	// log (and settle) whatever was reprogrammed after the capture's last
	// full tick, as the original machine would. A diff that finds the
	// mirror current changes nothing observable.
	mv := &m.vf
	mv.gen, mv.v, mv.since = m.Chip.Generation()-1, chip.Millivolts(st.MirrorVoltageMV), st.Ticks
	for p, f := range st.MirrorFreqMHz {
		mv.f[p] = chip.MHz(f)
		copy(mv.res[p][:], st.Residency[p])
	}

	// Live processes and threads, rebuilt verbatim (not through
	// newProcess — the Amdahl split already happened at original
	// submission), and the finished records, copied as they are. A machine
	// forgets only the records it dropped, so the live and finished IDs
	// are distinct, below NextID, and account for every ID the dropped
	// count does not: with nothing dropped, 0..NextID-1 are all present.
	// This rejects gaps, duplicates and an inflated NextID.
	if st.NextID-st.FinishedDropped != len(st.Processes)+len(st.Finished) {
		return nil, fmt.Errorf("sim: snapshot has %d live, %d finished and %d dropped processes but next ID %d",
			len(st.Processes), len(st.Finished), st.FinishedDropped, st.NextID)
	}
	ids := make([]int, 0, len(st.Processes)+len(st.Finished))
	for i, ps := range st.Processes {
		if i > 0 && ps.ID <= st.Processes[i-1].ID {
			return nil, fmt.Errorf("sim: snapshot process %d has ID %d out of order", i, ps.ID)
		}
		ids = append(ids, ps.ID)
		state := ProcState(ps.State)
		if state != Pending && state != Running || len(ps.Threads) == 0 || !energyInRange(ps.CoreEnergy) {
			return nil, fmt.Errorf("sim: snapshot live process %d in state %d with %d threads or its core energy out of range",
				ps.ID, ps.State, len(ps.Threads))
		}
		b, err := workload.ByName(ps.Bench)
		if err != nil {
			return nil, fmt.Errorf("sim: snapshot process %d: %w", ps.ID, err)
		}
		p := &Process{
			ID:         ps.ID,
			Bench:      b,
			State:      state,
			Submitted:  ps.Submitted,
			Started:    ps.Started,
			Completed:  -1,
			coreEnergy: ps.CoreEnergy,
			Threads:    make([]*Thread, 0, len(ps.Threads)),
		}
		for i, ts := range ps.Threads {
			if !(ts.StallFrac >= 0 && ts.StallFrac <= 1) {
				return nil, fmt.Errorf("sim: snapshot process %d thread %d stall fraction %v out of range", ps.ID, i, ts.StallFrac)
			}
			t := &Thread{
				Proc:             p,
				Index:            i,
				Core:             chip.CoreID(ts.Core),
				instrTotal:       ts.InstrTotal,
				instrDone:        ts.InstrDone,
				lastCPI:          ts.LastCPI,
				lastL2Infl:       ts.LastL2Infl,
				stallFrac:        ts.StallFrac,
				stalledUntilTick: ts.StalledUntilTick,
			}
			p.Threads = append(p.Threads, t)
			// Exactly the threads of running processes occupy cores, one
			// thread per core.
			if state == Pending && t.Core != -1 || state == Running && (!spec.ValidCore(t.Core) || m.coreThr[t.Core] != nil) {
				return nil, fmt.Errorf("sim: snapshot process %d (%v) thread %d: bad core %d", ps.ID, state, i, ts.Core)
			}
			if state == Running {
				m.coreThr[t.Core] = t
			}
		}
		// Processes were captured in ascending ID order, which is exactly
		// the maintained order of the pending FIFO and the running list.
		if state == Pending {
			m.pending = append(m.pending, p)
		} else {
			m.running = append(m.running, p)
		}
	}
	for _, r := range st.Finished {
		if r.Threads < 1 || r.Threads > spec.Cores || !energyInRange(r.CoreEnergy) {
			return nil, fmt.Errorf("sim: snapshot finished process %d with %d threads or its core energy out of range",
				r.ID, r.Threads)
		}
		if _, err := workload.ByName(r.Bench); err != nil {
			return nil, fmt.Errorf("sim: snapshot process %d: %w", r.ID, err)
		}
		ids = append(ids, r.ID)
	}
	slices.Sort(ids)
	for i, id := range ids {
		if id < 0 || id >= st.NextID || i > 0 && id == ids[i-1] {
			return nil, fmt.Errorf("sim: snapshot process ID %d out of range or repeated", id)
		}
	}
	m.finished = slices.Clone(st.Finished)

	// Steady cache: rebuild the frozen tick against the restored threads,
	// re-keyed to the restored chip/placement generations so steadyReady
	// accepts it exactly as the original would have.
	if ss := st.Steady; ss != nil {
		for _, us := range ss.Upds {
			var th *Thread
			if spec.ValidCore(chip.CoreID(us.Core)) {
				th = m.coreThr[us.Core]
			}
			if th == nil {
				return nil, fmt.Errorf("sim: snapshot steady quantum on core %d, which holds no thread", us.Core)
			}
			m.upds = append(m.upds, upd{
				t:       th,
				bench:   th.Proc.Bench,
				core:    chip.CoreID(us.Core),
				fGHz:    us.FGHz,
				l2Infl:  us.L2Infl,
				cpi:     us.CPI,
				instr:   us.Instr,
				cycles:  us.Cycles,
				coreQ:   us.CoreQ,
				dCycles: us.DCycles,
				dInstr:  us.DInstr,
				dL3C:    us.DL3C,
			})
		}
		m.steady = steadyCache{
			valid:    true,
			chipGen:  m.Chip.Generation(),
			placeGen: m.placeGen,
			tick:     m.Tick,
			n:        len(ss.Upds),
			watts:    ss.Watts,
			energy:   ss.Energy,
			emCheck:  ss.EmCheck,
		}
	}
	return m, nil
}
