package sim

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"avfs/internal/chip"
	"avfs/internal/clock"
	"avfs/internal/power"
	"avfs/internal/ringbuf"
	"avfs/internal/vmin"
	"avfs/internal/workload"
)

// DefaultTick is the simulation time step in seconds (10 ms). Program
// runtimes are tens of seconds, so the quantization error is negligible.
const DefaultTick = 0.010

// l2SharePenalty scales how much two co-resident threads inflate each
// other's beyond-L2 traffic; the per-benchmark L2ShareSensitivity
// modulates it (calibrated against Fig. 7's −10%…+15% energy swing).
const l2SharePenalty = 0.40

// contentionOverlap is the fraction of queueing delay that memory-level
// parallelism cannot hide (calibrated against Fig. 8's contention ratios).
const contentionOverlap = 0.8

// maxMemRho caps the modelled memory utilization to keep the M/M/1
// queueing factor finite.
const maxMemRho = 0.95

// steadyRhoEps bounds the residual movement of the memory fixed point for
// a tick to count as steady: once the damped iteration's last mix moves
// rho by less than this, the utilization is frozen and identical ticks can
// be coalesced without drifting the per-tick instruction quantum.
const steadyRhoEps = 1e-12

// maxBatchTicks caps one coalesced commit (the max-horizon bound): even a
// fully steady idle machine re-validates its world at least every ~11
// simulated minutes.
const maxBatchTicks = 1 << 16

// boundarySlop mirrors the FP tolerance the tick consumers use in their
// own "has the boundary passed" checks (daemon poll, governor sample), so
// a batch never skips past a tick on which a consumer would have acted.
const boundarySlop = 1e-12

// Emergency records an instant at which the programmed voltage was below
// the configuration's true safe Vmin — on real hardware, a crash risk. The
// daemon's fail-safe protocol must keep this list empty.
type Emergency struct {
	At       float64
	Voltage  chip.Millivolts
	Required chip.Millivolts
}

// CoreCounters are the monotonically increasing per-core PMU counters.
type CoreCounters struct {
	Cycles       uint64
	Instructions uint64
	L3CAccesses  uint64
}

// upd is the per-thread scratch record of one tick: the static factors
// resolved in Phase 1, the equilibrium progress of Phase 2, and the
// derived per-tick commit quanta reused by the steady-state engine.
type upd struct {
	t      *Thread
	bench  *workload.Benchmark
	core   chip.CoreID
	fGHz   float64
	l2Infl float64
	cpi    float64
	instr  float64
	cycles float64
	// Commit quanta of one steady tick (Phase 5 equivalents); coreQ is
	// the core dynamic energy in power.Quantum units.
	coreQ   uint64
	dCycles uint64
	dInstr  uint64
	dL3C    uint64
}

// steadyCache captures the fully converged outcome of one tick so that
// while nothing changes — same busy-thread set, same V/F, no stall
// expiring, memory fixed point converged — subsequent ticks replay it
// without recomputation, one at a time (Step) or k at once (Advance).
type steadyCache struct {
	valid bool
	// Validity keys: the electrical state and placement generations the
	// cache was built under, and the tick length.
	chipGen  uint64
	placeGen uint64
	tick     float64
	// n is the number of entries of Machine.upds the cache covers.
	n int
	// Power of one steady tick and its energy per component.
	watts  float64
	energy power.TickEnergy
	// emCheck replays the Phase 4 accounting: ticks with any runnable
	// thread count one emergency evaluation each.
	emCheck bool
}

// rosterKey records what the thread roster in Machine.upds was built
// under: the chip and placement generations. It is valid only while no
// thread of the roster can have stalled out of it or finished.
type rosterKey struct {
	valid             bool
	chipGen, placeGen uint64
}

// vfMirror is the machine's record of what the chip was programmed to as
// of the last full tick, and of how many committed ticks each PMD ran in
// each frequency class: ticks from since on ran at f, the ones before
// are settled in res. So no committed tick needs residency work of its
// own.
type vfMirror struct {
	gen   uint64 // chip generation the mirror was last diffed under
	v     chip.Millivolts
	f     []chip.MHz
	since uint64
	res   [][clock.DividedLow + 1]uint64
}

// tickHook is one registered end-of-tick callback. It declares the next
// simulation time it cares about, letting the engine batch every tick
// strictly before it.
type tickHook struct {
	fn   func(*Machine, int)
	next func() float64
}

// Machine is one simulated X-Gene server.
type Machine struct {
	Spec  *chip.Spec
	Chip  *chip.Chip
	Power *power.Model
	Meter power.Meter

	// Tick is the integration step in seconds.
	Tick float64

	// ticks is the integer tick count; now is always derived as
	// float64(ticks)*Tick so hour-scale runs accumulate no FP drift.
	ticks uint64
	now   float64

	nextID int

	coreThr  []*Thread // occupancy: one thread per core, or nil
	counters []CoreCounters

	// running and pending (the admission FIFO) are the live processes,
	// each in ascending ID order. Both are maintained on state
	// transitions so the hot path never rebuilds or sorts them.
	running []*Process
	pending []*Process
	// finCheck marks that a thread may have completed since the last
	// completion scan (set by Phase 5 and by placements, which can admit
	// zero-work processes).
	finCheck bool

	// memRho is the lagged memory-path utilization used to break the
	// demand/latency fixed point across ticks.
	memRho float64

	// emergencies and finished are the retained history, oldest first;
	// emDropped and finDropped count the entries trimmed off their fronts
	// under histLimit (0 keeps everything), so the totals stay exact.
	emergencies []Emergency
	finished    []Record
	emDropped   int
	finDropped  int
	histLimit   int
	lastWatts   float64

	// log records structured events when enabled via EnableEventLog.
	log *ringbuf.Ring[Event]
	// subs receive every event as it happens (see Subscribe).
	subs []func(Event)
	// vf mirrors the chip's programmed V/F as of the last full tick and
	// keeps each PMD's frequency-class residency (see syncVF).
	vf vfMirror
	// emChecks counts voltage-emergency evaluations (one per tick with
	// any thread making progress) — the denominator behind the paper's
	// "zero emergencies" claim.
	emChecks int

	// vminDrift raises the machine's true safe-Vmin requirement,
	// modelling transistor aging (see vmin.AgingModel). Fresh silicon
	// has zero drift.
	vminDrift chip.Millivolts

	// migrationPenalty stalls a migrated thread for this many seconds
	// (cold caches + kernel bookkeeping); 0 models free migration, the
	// paper's approximation.
	migrationPenalty float64

	// placeGen counts placement-affecting changes (submit, place,
	// migrate, reassign, completion, aging drift); together with the
	// chip's electrical generation it keys every derived cache.
	placeGen uint64

	// upds is the persistent Phase 1/2 scratch buffer; pst the persistent
	// power-model input. Every full tick recomputes upds' per-tick results
	// in place and refills pst; the roster part of upds (which threads,
	// their static factors) is rebuilt only when roster no longer holds.
	upds   []upd
	roster rosterKey
	pst    power.State
	// pstChipGen is the chip generation pst's electrical part was read
	// under.
	pstChipGen uint64
	// foldDone/foldInc are dense scratch for the batch commit's progress
	// fold (cache-friendly and free of per-iteration pointer chasing).
	foldDone []float64
	foldInc  []float64

	// steady is the coalescing engine's cached tick.
	steady steadyCache
	// coalesced counts ticks committed beyond the first of each batch.
	coalesced uint64

	// Cached RequiredSafeVmin, keyed by (chip generation, placeGen).
	reqVmin     chip.Millivolts
	reqChipGen  uint64
	reqPlaceGen uint64
	reqValid    bool
	// reqBench/reqCores are computeRequiredVmin's grouping scratch: the
	// distinct programs on active cores and each one's core list.
	reqBench []*workload.Benchmark
	reqCores [][]chip.CoreID

	// planned and moves are Reassign's scratch: the planned process per
	// target core, and the places and migrations it logs.
	planned []*Process
	moves   []placement

	// onFinish callbacks run after a process completes (within Step,
	// after state updates), in registration order.
	onFinish []func(*Process)
	// hooks are the end-of-tick callbacks in registration order.
	hooks []tickHook
}

// New creates an idle machine for the given chip spec.
func New(spec *chip.Spec) *Machine {
	m := &Machine{
		Spec:     spec,
		Chip:     chip.New(spec),
		Power:    power.NewModel(spec),
		Tick:     DefaultTick,
		coreThr:  make([]*Thread, spec.Cores),
		counters: make([]CoreCounters, spec.Cores),
	}
	m.vf = vfMirror{gen: m.Chip.Generation(), v: m.Chip.Voltage(),
		f: make([]chip.MHz, spec.PMDs()), res: make([][clock.DividedLow + 1]uint64, spec.PMDs())}
	for p := range m.vf.f {
		m.vf.f[p] = m.Chip.PMDFreq(chip.PMDID(p))
	}
	return m
}

// Now returns the simulation time in seconds.
func (m *Machine) Now() float64 { return m.now }

// Ticks returns the number of ticks committed so far; Now() is always
// exactly Ticks()*Tick.
func (m *Machine) Ticks() uint64 { return m.ticks }

// CoalescedTicks returns how many of the committed ticks were replayed
// from the steady-state cache in multi-tick batches (every tick beyond
// the first of each batch).
func (m *Machine) CoalescedTicks() uint64 { return m.coalesced }

// OnFinish registers a callback invoked whenever a process completes.
// Callbacks run in registration order.
func (m *Machine) OnFinish(fn func(*Process)) { m.onFinish = append(m.onFinish, fn) }

// OnTick registers a callback invoked at the end of every step, in
// registration order with OnTickBounded hooks. It is an OnTickBounded
// hook whose boundary is always the current time, so every commit is a
// single exact tick and tick coalescing is off while it is registered;
// components that can state when they next need to run should use
// OnTickBounded instead.
func (m *Machine) OnTick(fn func(*Machine)) {
	m.OnTickBounded(func(m *Machine, _ int) { fn(m) }, m.Now)
}

// OnTickBounded registers a batch-aware end-of-tick callback. fn runs
// after every commit with the number of ticks just committed (1 on the
// exact path, k>=1 after a coalesced batch); it may be nil for hooks that
// only constrain batching. next reports the next simulation time the hook
// needs tick-exact processing for: the engine never commits a batch past
// the first tick whose time reaches next()-1e-12, so the hook observes
// that tick exactly as serial stepping would. Returning a time at or
// before Now() forces per-tick stepping; +Inf leaves batching unbounded.
func (m *Machine) OnTickBounded(fn func(*Machine, int), next func() float64) {
	m.hooks = append(m.hooks, tickHook{fn: fn, next: next})
}

// runHooks invokes the end-of-tick callbacks for a commit of k ticks.
func (m *Machine) runHooks(k int) {
	for i := range m.hooks {
		if fn := m.hooks[i].fn; fn != nil {
			fn(m, k)
		}
	}
}

// Submit creates a new pending process of nThreads threads running bench.
func (m *Machine) Submit(b *workload.Benchmark, nThreads int) (*Process, error) {
	p, err := newProcess(m.nextID, b, nThreads, m.now)
	if err != nil {
		return nil, err
	}
	m.nextID++
	m.pending = append(m.pending, p)
	m.placeGen++
	m.logEvent(Event{Kind: EvSubmit, Proc: p.ID, Text: b.Name, N: int32(nThreads)})
	return p, nil
}

// MustSubmit is Submit for known-good arguments.
func (m *Machine) MustSubmit(b *workload.Benchmark, nThreads int) *Process {
	p, err := m.Submit(b, nThreads)
	if err != nil {
		panic(err)
	}
	return p
}

// startRunning transitions a pending process to Running, moving it from
// the maintained pending FIFO into the running list (ascending ID order).
func (m *Machine) startRunning(p *Process) {
	p.State = Running
	p.Started = m.now
	for j, q := range m.pending {
		if q == p {
			copy(m.pending[j:], m.pending[j+1:])
			m.pending[len(m.pending)-1] = nil
			m.pending = m.pending[:len(m.pending)-1]
			break
		}
	}
	i := len(m.running)
	for i > 0 && m.running[i-1].ID > p.ID {
		i--
	}
	m.running = append(m.running, nil)
	copy(m.running[i+1:], m.running[i:])
	m.running[i] = p
	// A degenerate zero-work process (possible with SerialFrac 1) is done
	// the moment it starts; make sure the next tick's completion scan
	// sees it.
	m.finCheck = true
}

// Place pins every thread of a pending process onto the given cores (one
// core per thread, in order) and starts it.
func (m *Machine) Place(p *Process, cores []chip.CoreID) error {
	if p.State != Pending {
		return fmt.Errorf("%w: process %d is %v, not pending", ErrInvalidPlacement, p.ID, p.State)
	}
	if len(cores) != len(p.Threads) {
		return fmt.Errorf("%w: process %d has %d threads but %d cores given", ErrInvalidPlacement, p.ID, len(p.Threads), len(cores))
	}
	if err := m.checkFree(cores, nil); err != nil {
		return err
	}
	for i, t := range p.Threads {
		t.Core = cores[i]
		m.coreThr[cores[i]] = t
	}
	m.startRunning(p)
	m.placeGen++
	m.logPlacement(EvPlace, p, cores)
	return nil
}

// stallTicks converts the configured migration penalty to whole ticks,
// rounding up so any positive penalty stalls at least the remainder of
// its span; a zero penalty is exactly free.
func (m *Machine) stallTicks() uint64 {
	if m.migrationPenalty <= 0 {
		return 0
	}
	return uint64(math.Ceil(m.migrationPenalty/m.Tick - 1e-9))
}

// Migrate moves a running process's threads onto a new core set, modelling
// the kernel's process migration. Cores occupied by other processes are
// rejected; the process's own current cores may be reused.
func (m *Machine) Migrate(p *Process, cores []chip.CoreID) error {
	if p.State != Running {
		return fmt.Errorf("%w: process %d is %v, not running", ErrInvalidPlacement, p.ID, p.State)
	}
	if len(cores) != len(p.Threads) {
		return fmt.Errorf("%w: process %d has %d threads but %d cores given", ErrInvalidPlacement, p.ID, len(p.Threads), len(cores))
	}
	if err := m.checkFree(cores, p); err != nil {
		return err
	}
	for _, t := range p.Threads {
		if t.Core >= 0 && m.coreThr[t.Core] == t {
			m.coreThr[t.Core] = nil
		}
	}
	stall := m.ticks + m.stallTicks()
	for i, t := range p.Threads {
		t.Core = cores[i]
		m.coreThr[cores[i]] = t
		t.stalledUntilTick = stall
	}
	m.placeGen++
	m.logPlacement(EvMigrate, p, cores)
	return nil
}

// Reassign atomically applies a whole-machine placement: every process in
// the map is migrated (if running) or placed (if pending) onto its target
// cores. The combined assignment is validated first — target cores must be
// valid, distinct across the whole map, and not occupied by any process
// outside the map — so arbitrary permutations are expressible without
// intermediate-state conflicts.
func (m *Machine) Reassign(assign map[*Process][]chip.CoreID) error {
	// Validate shapes and global distinctness; planned[c] is the process
	// a target core c is assigned to. The scratch is cleared on every
	// return.
	if m.planned == nil {
		m.planned = make([]*Process, m.Spec.Cores)
	}
	planned := m.planned
	defer clear(planned)
	for p, cores := range assign {
		if p.State == Finished {
			return fmt.Errorf("%w: process %d already finished", ErrInvalidPlacement, p.ID)
		}
		if len(cores) != len(p.Threads) {
			return fmt.Errorf("%w: process %d has %d threads but %d cores given", ErrInvalidPlacement, p.ID, len(p.Threads), len(cores))
		}
		for _, c := range cores {
			if !m.Spec.ValidCore(c) {
				return fmt.Errorf("%w: core %d out of range", ErrInvalidPlacement, c)
			}
			if other := planned[c]; other != nil {
				return fmt.Errorf("%w: core %d assigned to both process %d and %d", ErrInvalidPlacement, c, other.ID, p.ID)
			}
			planned[c] = p
		}
	}
	// Cores used by the assignment must not be occupied by outsiders.
	for c, p := range planned {
		if t := m.coreThr[c]; p != nil && t != nil {
			if _, inPlan := assign[t.Proc]; !inPlan {
				return fmt.Errorf("%w: core %d occupied by process %d outside the reassignment", ErrInvalidPlacement, c, t.Proc.ID)
			}
		}
	}
	// Apply: vacate all planned processes, then pin to targets. Thread
	// cores keep their prior values through the vacate so a process that
	// lands where it was is not charged a migration.
	for p := range assign {
		for _, t := range p.Threads {
			if t.Core >= 0 && m.coreThr[t.Core] == t {
				m.coreThr[t.Core] = nil
			}
		}
	}
	stall := m.ticks + m.stallTicks()
	logging, moves := m.eventsOn(), m.moves[:0]
	for p, cores := range assign {
		moved := false
		for i, t := range p.Threads {
			moved = moved || t.Core != cores[i]
			t.Core = cores[i]
			m.coreThr[cores[i]] = t
		}
		kind := EvMigrate
		if p.State == Pending {
			m.startRunning(p)
			kind = EvPlace
		} else if moved {
			for _, t := range p.Threads {
				t.stalledUntilTick = stall
			}
		} else {
			continue
		}
		if logging {
			moves = append(moves, placement{p, kind})
		}
	}
	// The map's order is random; the log lists the moves by process ID.
	if logging {
		slices.SortFunc(moves, func(a, b placement) int { return cmp.Compare(a.p.ID, b.p.ID) })
		for _, mv := range moves {
			m.logPlacement(mv.kind, mv.p, assign[mv.p])
		}
	}
	clear(moves)
	m.moves = moves[:0]
	m.placeGen++
	return nil
}

// placement is one place or migrate of a Reassign, held until the batch
// is logged in process-ID order.
type placement struct {
	p    *Process
	kind EventKind
}

// checkFree verifies that the cores are valid, distinct and not occupied
// by any process other than owner.
func (m *Machine) checkFree(cores []chip.CoreID, owner *Process) error {
	seen := map[chip.CoreID]bool{}
	for _, c := range cores {
		if !m.Spec.ValidCore(c) {
			return fmt.Errorf("%w: core %d out of range", ErrInvalidPlacement, c)
		}
		if seen[c] {
			return fmt.Errorf("%w: core %d assigned twice", ErrInvalidPlacement, c)
		}
		seen[c] = true
		if t := m.coreThr[c]; t != nil && t.Proc != owner {
			return fmt.Errorf("%w: core %d already occupied by process %d", ErrInvalidPlacement, c, t.Proc.ID)
		}
	}
	return nil
}

// FreeCoreCount returns the number of unoccupied cores without building
// the list.
func (m *Machine) FreeCoreCount() int {
	n := 0
	for _, t := range m.coreThr {
		if t == nil {
			n++
		}
	}
	return n
}

// FreeCores returns the unoccupied cores in ascending order.
func (m *Machine) FreeCores() []chip.CoreID {
	var out []chip.CoreID
	for c, t := range m.coreThr {
		if t == nil {
			out = append(out, chip.CoreID(c))
		}
	}
	return out
}

// Running returns the running processes in submission order.
func (m *Machine) Running() []*Process {
	if len(m.running) == 0 {
		return nil
	}
	return append([]*Process(nil), m.running...)
}

// RunningView returns the maintained running list itself, in submission
// order, without copying it. The slice is read-only and valid until the
// machine next changes state (a step, placement, migration or
// completion); callers that keep it, or change the machine while
// iterating, use Running.
func (m *Machine) RunningView() []*Process { return m.running }

// RunningCount returns the number of running processes without copying
// the list.
func (m *Machine) RunningCount() int { return len(m.running) }

// Pending returns the pending (submitted, unplaced) processes in
// submission order.
func (m *Machine) Pending() []*Process {
	if len(m.pending) == 0 {
		return nil
	}
	return append([]*Process(nil), m.pending...)
}

// PendingHead returns the head of the pending FIFO — the oldest
// submitted, unplaced process — or nil when nothing is pending.
func (m *Machine) PendingHead() *Process {
	if len(m.pending) == 0 {
		return nil
	}
	return m.pending[0]
}

// PendingCount returns the number of pending processes without building
// the list.
func (m *Machine) PendingCount() int { return len(m.pending) }

// PlacementGeneration returns the placement generation: a counter that
// advances on every placement-affecting change (submit, place, migrate,
// reassign, completion, aging drift). Together with the chip's
// Generation it tells a controller whether anything it planned against
// can have changed.
func (m *Machine) PlacementGeneration() uint64 { return m.placeGen }

// Finished returns the records of the retained completed processes in
// completion order: all of them unless SetHistoryLimit bounds the tail.
// The slice is read-only and valid until the machine next steps.
func (m *Machine) Finished() []Record { return m.finished }

// ProcessByID returns the live (pending or running) process with the
// given ID, or nil; a finished process survives only as its Record.
func (m *Machine) ProcessByID(id int) *Process {
	for _, l := range [...][]*Process{m.pending, m.running} {
		if i, ok := slices.BinarySearchFunc(l, id, func(p *Process, id int) int { return cmp.Compare(p.ID, id) }); ok {
			return l[i]
		}
	}
	return nil
}

// FinishedCount returns how many processes have completed, including
// those SetHistoryLimit dropped from Finished.
func (m *Machine) FinishedCount() int { return m.finDropped + len(m.finished) }

// SetHistoryLimit bounds the retained history to the newest n finished
// processes and the newest n emergencies (0, the default, keeps
// everything). Older records leave Finished; FinishedCount and
// EmergencyCount stay exact. Nothing on the stepping path reads the
// history, so the limit never changes a trajectory.
func (m *Machine) SetHistoryLimit(n int) {
	m.histLimit = max(n, 0)
	m.trimHistory()
}

// trimHistory drops the history beyond the limit off the fronts of the
// tails. Reslicing keeps each drop O(1): append reallocates a tail once its
// capacity runs out, copying only the retained entries.
func (m *Machine) trimHistory() {
	if m.histLimit == 0 {
		return
	}
	if k := len(m.finished) - m.histLimit; k > 0 {
		m.finished = m.finished[k:]
		m.finDropped += k
	}
	if k := len(m.emergencies) - m.histLimit; k > 0 {
		m.emergencies = m.emergencies[k:]
		m.emDropped += k
	}
}

// ThreadOn returns the thread on core c, or nil.
func (m *Machine) ThreadOn(c chip.CoreID) *Thread { return m.coreThr[c] }

// UtilizedPMDCount returns the number of PMDs with at least one busy core.
func (m *Machine) UtilizedPMDCount() int {
	n := 0
	for p := 0; p < m.Spec.PMDs(); p++ {
		c0, c1 := m.Spec.CoresOf(chip.PMDID(p))
		if m.coreThr[c0] != nil || m.coreThr[c1] != nil {
			n++
		}
	}
	return n
}

// Counters returns a copy of core c's PMU counters.
func (m *Machine) Counters(c chip.CoreID) CoreCounters { return m.counters[c] }

// Emergencies returns the retained voltage-emergency instants, oldest
// first: all of them unless SetHistoryLimit bounds the tail.
func (m *Machine) Emergencies() []Emergency { return m.emergencies }

// EmergencyCount returns how many voltage emergencies were recorded,
// including those SetHistoryLimit dropped from Emergencies.
func (m *Machine) EmergencyCount() int { return m.emDropped + len(m.emergencies) }

// EmergencyChecks returns how many times the voltage-emergency check ran.
func (m *Machine) EmergencyChecks() int { return m.emChecks }

// MemUtilization returns the memory-path utilization of the last tick.
func (m *Machine) MemUtilization() float64 { return m.memRho }

// EnergyBreakdown returns the accumulated energy per power-model
// component in joules (the Breakdown fields hold joules here, not watts).
func (m *Machine) EnergyBreakdown() power.Breakdown { return m.Meter.Breakdown() }

// LastPower returns the instantaneous power of the last tick in watts —
// the simulator's stand-in for the external power sensor sampled by the
// paper's measurement infrastructure.
func (m *Machine) LastPower() float64 { return m.lastWatts }

// SetMigrationPenalty makes every subsequent migration stall the moved
// threads for d seconds — the cost the paper argues is negligible
// ("equal impact as a process migration of the Linux kernel"); the
// migration-cost ablation quantifies that claim. The penalty is applied
// in whole ticks (rounded up), so 0 is exactly free.
func (m *Machine) SetMigrationPenalty(d float64) {
	if d < 0 {
		d = 0
	}
	m.migrationPenalty = d
}

// SetVminDrift ages the silicon: every true safe-Vmin requirement rises
// by mv (capped so nominal voltage stays safe, as the manufacturer's
// rated-lifetime guardband guarantees). A daemon deployed on an aged
// machine must widen its voltage guard accordingly (vmin.GuardForAge).
func (m *Machine) SetVminDrift(mv chip.Millivolts) {
	if mv < 0 {
		mv = 0
	}
	m.vminDrift = mv
	m.placeGen++
}

// RequiredSafeVmin returns the model's true minimum safe voltage for the
// machine's instantaneous configuration: for every active core, the class
// envelope of its PMD's frequency class at the current utilized-PMD count,
// adjusted by the hosted program's offsets. Idle machines require only the
// regulator floor. The value is memoized on the electrical and placement
// generations, so callers on hot paths (the per-tick emergency check, the
// daemon's guard-margin sampling) pay a cache probe, not a recomputation.
func (m *Machine) RequiredSafeVmin() chip.Millivolts {
	return m.cachedRequiredVmin()
}

// computeRequiredVmin derives the requirement from scratch. It allocates
// nothing once the grouping scratch has grown to the machine's program
// mix.
func (m *Machine) computeRequiredVmin() chip.Millivolts {
	// Group active cores by the benchmark they run so per-workload
	// offsets apply to each program's own core set.
	nb := 0
	for c, t := range m.coreThr {
		if t == nil {
			continue
		}
		b := t.Proc.Bench
		i := 0
		for i < nb && m.reqBench[i] != b {
			i++
		}
		if i == nb {
			if nb == len(m.reqBench) {
				m.reqBench = append(m.reqBench, nil)
				m.reqCores = append(m.reqCores, nil)
			}
			m.reqBench[i] = b
			m.reqCores[i] = m.reqCores[i][:0]
			nb++
		}
		m.reqCores[i] = append(m.reqCores[i], chip.CoreID(c))
	}
	if nb == 0 {
		return m.Spec.MinSafeMV
	}
	utilized := m.UtilizedPMDCount()
	var req chip.Millivolts
	for i, b := range m.reqBench[:nb] {
		cores := m.reqCores[i]
		m.reqBench[i] = nil // hold no program past this call
		// The binding frequency class for a program is the fastest
		// class among the PMDs its threads occupy.
		fc := clock.HalfSpeed
		if m.Spec.Model == chip.XGene2 {
			fc = clock.DividedLow
		}
		for _, c := range cores {
			cfc := clock.ClassOf(m.Spec, m.Chip.CoreFreq(c))
			if cfc < fc {
				fc = cfc
			}
		}
		cfg := vmin.Config{Spec: m.Spec, FreqClass: fc, Cores: cores, Bench: b}
		// The droop class is set by the whole machine's utilized PMDs,
		// not only this program's; widen the config accordingly.
		v := vmin.SafeVmin(&cfg)
		env := vmin.ClassEnvelope(m.Spec, fc, cfg.UtilizedPMDs())
		envAll := vmin.ClassEnvelope(m.Spec, fc, utilized)
		v += envAll - env
		if v > req {
			req = v
		}
	}
	// Aging drift raises the requirement, but nominal always remains
	// safe (the rated-lifetime guarantee behind the nominal guardband).
	req += m.vminDrift
	if req > m.Spec.NominalMV {
		req = m.Spec.NominalMV
	}
	if req < m.Spec.MinSafeMV {
		req = m.Spec.MinSafeMV
	}
	return req
}

// cachedRequiredVmin memoizes computeRequiredVmin on the electrical and
// placement generations so the per-tick emergency check allocates nothing
// while the configuration is unchanged.
func (m *Machine) cachedRequiredVmin() chip.Millivolts {
	cg := m.Chip.Generation()
	if !m.reqValid || m.reqChipGen != cg || m.reqPlaceGen != m.placeGen {
		m.reqVmin = m.computeRequiredVmin()
		m.reqChipGen = cg
		m.reqPlaceGen = m.placeGen
		m.reqValid = true
	}
	return m.reqVmin
}

// Step advances the simulation by exactly one tick: recomputes contention,
// advances thread work, integrates energy, updates counters, checks for
// voltage emergencies, and completes processes whose work is done. While
// the machine is in steady state the tick replays from the cached
// equilibrium at a fraction of the cost and with zero allocations.
func (m *Machine) Step() {
	if m.steadyReady() {
		m.commitSteady(1)
		return
	}
	m.stepFull()
}

// steadyReady reports whether the cached steady tick applies to the next
// tick: the cache is valid for the current electrical/placement
// generations and tick length, and no covered thread would finish within
// the tick (a finishing tick changes the busy set and must take the full
// path).
func (m *Machine) steadyReady() bool {
	c := &m.steady
	if !c.valid || c.tick != m.Tick || c.placeGen != m.placeGen || c.chipGen != m.Chip.Generation() {
		return false
	}
	for i := 0; i < c.n; i++ {
		u := &m.upds[i]
		if u.t.instrDone+u.instr >= u.t.instrTotal {
			return false
		}
	}
	return true
}

// commitSteady commits k identical steady ticks in one batch. With k == 1
// it is the exact-path fast tick; with k > 1 it is the coalescing engine's
// batch commit. Progress is applied as k repeated additions so the float
// trajectory of every thread is identical to serial stepping; integer
// counters and the fixed-point energies add k times the tick's quanta, so
// every observable equals serial stepping bit for bit.
func (m *Machine) commitSteady(k int) {
	c := &m.steady
	// Progress is folded tick by tick — k repeated additions — so every
	// thread's float trajectory is bitwise identical to serial stepping.
	// The tick-major order over dense scratch interleaves the threads'
	// dependency chains, which the per-thread order would serialize on
	// FP-add latency.
	if k == 1 {
		for i := 0; i < c.n; i++ {
			u := &m.upds[i]
			u.t.instrDone += u.instr
		}
	} else {
		padded := (c.n + 7) &^ 7
		if cap(m.foldDone) < padded {
			m.foldDone = make([]float64, padded)
			m.foldInc = make([]float64, padded)
		}
		done, inc := m.foldDone[:padded], m.foldInc[:padded]
		for i := c.n; i < padded; i++ {
			done[i], inc[i] = 0, 0
		}
		for i := 0; i < c.n; i++ {
			done[i] = m.upds[i].t.instrDone
			inc[i] = m.upds[i].instr
		}
		foldLanes(done, inc, k)
		for i := 0; i < c.n; i++ {
			m.upds[i].t.instrDone = done[i]
		}
	}

	ku := uint64(k)
	m.lastWatts = c.watts
	m.Meter.Commit(&c.energy, c.watts, ku, m.Tick)
	if c.emCheck {
		// Every replayed tick ran the emergency evaluation; the cache is
		// only valid while the programmed voltage meets the requirement,
		// so none of them records an emergency.
		m.emChecks += k
	}
	for i := 0; i < c.n; i++ {
		u := &m.upds[i]
		cc := &m.counters[u.t.Core]
		cc.Cycles += ku * u.dCycles
		cc.Instructions += ku * u.dInstr
		cc.L3CAccesses += ku * u.dL3C
		u.t.Proc.coreEnergy.Add(u.coreQ, ku)
	}
	m.ticks += ku
	m.now = float64(m.ticks) * m.Tick
	m.runHooks(k)
}

// foldLanes advances done[i] by k repeated additions of inc[i] per lane.
// len(done) must be a multiple of 8 (pad with zero lanes, which fold
// harmlessly). The fold runs through 8 accumulators held in registers:
// the chains are independent, so eight 4-cycle FP adds overlap and each
// batch tick costs ~4 cycles per 8 lanes instead of a store-bound pass
// over memory.
func foldLanes(done, inc []float64, k int) {
	for i := 0; i < len(done); i += 8 {
		d0, d1, d2, d3 := done[i], done[i+1], done[i+2], done[i+3]
		d4, d5, d6, d7 := done[i+4], done[i+5], done[i+6], done[i+7]
		x0, x1, x2, x3 := inc[i], inc[i+1], inc[i+2], inc[i+3]
		x4, x5, x6, x7 := inc[i+4], inc[i+5], inc[i+6], inc[i+7]
		for j := 0; j < k; j++ {
			d0 += x0
			d1 += x1
			d2 += x2
			d3 += x3
			d4 += x4
			d5 += x5
			d6 += x6
			d7 += x7
		}
		done[i], done[i+1], done[i+2], done[i+3] = d0, d1, d2, d3
		done[i+4], done[i+5], done[i+6], done[i+7] = d4, d5, d6, d7
	}
}

// stepFull is the exact one-tick path: the full contention fixed point,
// power integration, emergency check, commit and completion scan. At the
// end it rebuilds the steady cache if the tick closed in equilibrium.
func (m *Machine) stepFull() {
	dt := m.Tick
	// The generations the tick's inputs were read under; callbacks at the
	// end of the tick may change state, which these keys then invalidate.
	chipGen := m.Chip.Generation()
	placeGen := m.placeGen
	m.steady.valid = false

	// --- Phase 1: per-thread static factors (L2 sharing) and the
	// memory-contention fixed point. Demand on the shared L3/DRAM path
	// depends on per-thread throughput, which depends on the queueing
	// latency, which depends on demand; a few damped iterations starting
	// from the previous tick's utilization converge to the equilibrium
	// (the map is monotone decreasing, so the fixed point is unique).
	// The roster of progressing threads and their static factors is a
	// function of the placement, the V/F and which threads are done or
	// stalled, so it is rebuilt only when one of them can have changed.
	stalled := false
	if r := &m.roster; !r.valid || r.chipGen != chipGen || r.placeGen != placeGen {
		stalled = m.buildRoster()
		// A stall expires without a generation change, so a roster
		// built around a stalled thread is rebuilt on the next full tick.
		*r = rosterKey{valid: !stalled, chipGen: chipGen, placeGen: placeGen}
	}
	upds := m.upds

	rho := m.memRho
	var lastMix float64
	for iter := 0; iter < 6; iter++ {
		q := 1.0 / (1.0 - math.Min(rho, maxMemRho))
		contInfl := 1.0 + contentionOverlap*(q-1.0)
		var demand float64
		for i := range upds {
			u := &upds[i]
			cpi := u.bench.CPIAt(u.fGHz, u.l2Infl, contInfl)
			demand += (u.fGHz * 1e9 / cpi) * u.bench.MemPerInstr * u.l2Infl
		}
		next := math.Min(demand/m.Spec.MemBandwidth, 1.0)
		mixed := 0.5*rho + 0.5*next
		lastMix = math.Abs(mixed - rho)
		rho = mixed
	}
	q := 1.0 / (1.0 - math.Min(rho, maxMemRho))
	contInfl := 1.0 + contentionOverlap*(q-1.0)

	// --- Phase 2: per-thread effective CPI and progress at equilibrium.
	clamped := false
	for i := range upds {
		u := &upds[i]
		u.cpi = u.bench.CPIAt(u.fGHz, u.l2Infl, contInfl)
		u.cycles = u.fGHz * 1e9 * dt
		u.instr = u.cycles / u.cpi
		if remaining := u.t.instrTotal - u.t.instrDone; u.instr > remaining {
			u.instr = remaining
			clamped = true
		}
	}

	// --- Phase 3: power integration (uses pre-update stall fractions).
	st := m.fillPowerState()
	bd := m.Power.Power(*st)
	m.lastWatts = bd.Total()
	energy := bd.Quanta(dt)
	m.Meter.Commit(&energy, m.lastWatts, 1, dt)

	// --- Phase 4: voltage-emergency check and V/F change logging.
	voltageSafe := true
	if len(upds) > 0 {
		m.emChecks++
		if req := m.cachedRequiredVmin(); m.Chip.Voltage() < req {
			voltageSafe = false
			m.emergencies = append(m.emergencies, Emergency{
				At: m.now, Voltage: m.Chip.Voltage(), Required: req,
			})
			m.trimHistory()
			m.logEvent(Event{Kind: EvEmergency, Proc: -1, From: int32(m.Chip.Voltage()), To: int32(req)})
		}
	}
	m.syncVF()

	// --- Phase 5: commit progress, counters and per-process energy
	// attribution (core dynamic share only; uncore is chip-shared).
	v := m.Chip.Voltage()
	finished := false
	for i := range upds {
		u := &upds[i]
		t := u.t
		t.instrDone += u.instr
		t.lastCPI = u.cpi
		t.lastL2Infl = u.l2Infl
		base := u.bench.CPIBase
		t.stallFrac = (u.cpi - base) / u.cpi
		cc := &m.counters[t.Core]
		u.dCycles = uint64(u.cycles)
		u.dInstr = uint64(u.instr)
		u.dL3C = uint64(u.instr * u.bench.MemPerInstr * u.l2Infl)
		cc.Cycles += u.dCycles
		cc.Instructions += u.dInstr
		cc.L3CAccesses += u.dL3C
		u.coreQ = power.Quanta(m.Power.CoreDynamicPower(v, m.Chip.CoreFreq(t.Core), power.CoreState{
			Busy:      true,
			Activity:  u.bench.Activity,
			StallFrac: t.stallFrac,
		}), dt)
		t.Proc.coreEnergy.Add(u.coreQ, 1)
		if t.instrDone >= t.instrTotal {
			finished = true
		}
	}
	m.memRho = rho
	m.ticks++
	m.now = float64(m.ticks) * m.Tick
	if finished {
		// A finished thread leaves the roster (it blocks until its whole
		// process completes), again without a generation change.
		m.finCheck = true
		m.roster.valid = false
	}

	// --- Phase 6: completions.
	if m.finCheck {
		m.finCheck = false
		m.completeFinished()
	}

	// Rebuild the steady cache when the tick closed in equilibrium: the
	// fixed point converged, no thread clamped/finished or sat stalled,
	// the emergency outcome is repeatable, and nothing (including this
	// tick's completions) moved the generations mid-tick. Power is
	// re-evaluated against the just-committed stall fractions so the
	// cached tick equals what the next full tick would compute.
	if !stalled && !clamped && !finished && voltageSafe &&
		lastMix < steadyRhoEps && placeGen == m.placeGen {
		st := m.fillPowerState()
		cbd := m.Power.Power(*st)
		m.steady = steadyCache{
			valid:    true,
			chipGen:  chipGen,
			placeGen: placeGen,
			tick:     m.Tick,
			n:        len(upds),
			watts:    cbd.Total(),
			energy:   cbd.Quanta(m.Tick),
			emCheck:  len(upds) > 0,
		}
	}

	m.runHooks(1)
}

// buildRoster refills upds with the threads that make progress this tick
// — every placed thread that is neither done nor paying a migration
// stall — and their static factors: core frequency and L2 sharing with
// the PMD sibling. It reports whether any thread sat stalled.
func (m *Machine) buildRoster() (stalled bool) {
	upds := m.upds[:0]
	for c, t := range m.coreThr {
		if t == nil || t.Done() {
			// A thread that finished its work blocks (the kernel idles
			// the core) until its whole process completes; it stops
			// counting cycles and stops loading the memory system.
			continue
		}
		if t.stalledUntilTick > m.ticks {
			stalled = true
			continue // paying a migration penalty: no forward progress
		}
		core := chip.CoreID(c)
		fGHz := m.Chip.CoreFreq(core).GHz()
		l2Infl := 1.0
		if sib := m.siblingThread(core); sib != nil {
			b, s := t.Proc.Bench, sib.Proc.Bench
			pressure := math.Sqrt(b.L2ShareSensitivity * s.L2ShareSensitivity)
			l2Infl = 1.0 + l2SharePenalty*pressure
		}
		upds = append(upds, upd{t: t, bench: t.Proc.Bench, core: core, fGHz: fGHz, l2Infl: l2Infl})
	}
	m.upds = upds
	return stalled
}

// completeFinished retires every running process whose threads have all
// finished: the process leaves the running set, its cores go idle, the
// finish is logged, the finish callbacks fire, and the machine keeps only
// its Record. Called by stepFull's completion phase.
func (m *Machine) completeFinished() {
	i := 0
	for i < len(m.running) {
		p := m.running[i]
		if !p.done() {
			i++
			continue
		}
		copy(m.running[i:], m.running[i+1:])
		m.running[len(m.running)-1] = nil
		m.running = m.running[:len(m.running)-1]
		for _, t := range p.Threads {
			if t.Core >= 0 && m.coreThr[t.Core] == t {
				m.coreThr[t.Core] = nil
			}
			t.Core = -1
		}
		p.State = Finished
		p.Completed = m.now
		m.placeGen++
		m.logEvent(Event{Kind: EvFinish, Proc: p.ID, Text: p.Bench.Name, Secs: p.Runtime()})
		for _, fn := range m.onFinish {
			fn(p)
		}
		m.finished = append(m.finished, Record{ID: p.ID, Bench: p.Bench.Name, Threads: len(p.Threads),
			Submitted: p.Submitted, Started: p.Started, Completed: p.Completed, CoreEnergy: p.coreEnergy})
		m.trimHistory()
	}
}

// syncVF diffs the chip against the V/F mirror once per chip
// generation, before this tick commits: it logs an EvVoltage/EvFreq
// event per changed level and settles the ticks [since, ticks) into the
// classes the PMDs ran at. This tick and the ones after it run at the
// chip's present V/F. A steady tick never needs the diff: its cache is
// keyed to the generation the last full tick diffed under. Called by
// stepFull after the emergency check.
func (m *Machine) syncVF() {
	mv := &m.vf
	g := m.Chip.Generation()
	if g == mv.gen {
		return
	}
	mv.gen = g
	if v := m.Chip.Voltage(); v != mv.v {
		m.logEvent(Event{Kind: EvVoltage, Proc: -1, From: int32(mv.v), To: int32(v)})
		mv.v = v
	}
	for p, f := range mv.f {
		mv.res[p][clock.ClassOf(m.Spec, f)] += m.ticks - mv.since
		if nf := m.Chip.PMDFreq(chip.PMDID(p)); nf != f {
			m.logEvent(Event{Kind: EvFreq, Proc: -1, N: int32(p), From: int32(f), To: int32(nf)})
			mv.f[p] = nf
		}
	}
	mv.since = m.ticks
}

// Residency returns how many of the committed ticks PMD p ran in
// frequency class fc (0 for a class the chip does not have). Over the
// chip's classes a PMD's residencies sum to Ticks().
func (m *Machine) Residency(p chip.PMDID, fc clock.FreqClass) uint64 {
	if clock.ClassOf(m.Spec, m.vf.f[p]) == fc {
		return m.vf.res[p][fc] + m.ticks - m.vf.since
	}
	return m.vf.res[p][fc]
}

// siblingThread returns the thread on the other core of c's PMD, or nil.
func (m *Machine) siblingThread(c chip.CoreID) *Thread {
	sib := c ^ 1
	return m.coreThr[sib]
}

// fillPowerState refills the machine's persistent power-model input for
// this instant and returns it. The voltage and PMD frequencies are reread
// only when the chip generation moved.
func (m *Machine) fillPowerState() *power.State {
	st := &m.pst
	if g := m.Chip.Generation(); st.PMDFreq == nil || m.pstChipGen != g {
		if st.PMDFreq == nil {
			m.pst = power.NewState(m.Spec)
		}
		st.Voltage = m.Chip.Voltage()
		for p := range st.PMDFreq {
			st.PMDFreq[p] = m.Chip.PMDFreq(chip.PMDID(p))
		}
		m.pstChipGen = g
	}
	st.MemUtil = m.memRho
	for c, t := range m.coreThr {
		if t == nil || t.Done() {
			st.Cores[c] = power.CoreState{} // blocked threads leave their core in WFI
			continue
		}
		st.Cores[c] = power.CoreState{
			Busy:      true,
			Activity:  t.Proc.Bench.Activity,
			StallFrac: t.stallFrac,
		}
	}
	return st
}

// Advance moves the simulation forward by at least one tick, committing
// a whole batch of steady ticks at once when the machine is in steady
// state. It returns the number of ticks committed. The batch is bounded
// by the earliest thread completion, the next boundary any OnTickBounded
// hook declares, and the max-horizon cap; OnTick hooks force per-tick
// stepping.
func (m *Machine) Advance() int { return m.advance(1 << 30) }

// advance is Advance bounded additionally by limit ticks (used by
// RunFor/RunUntilIdle to stop exactly on their deadlines).
func (m *Machine) advance(limit int) int {
	if limit <= 1 || !m.steadyReady() {
		m.Step()
		return 1
	}
	k := m.batchTicks(limit)
	if k <= 1 {
		m.Step()
		return 1
	}
	m.commitSteady(k)
	m.coalesced += uint64(k - 1)
	return k
}

// batchTicks computes how many identical steady ticks may be committed at
// once: at most limit and the max horizon, stopping at (and including)
// the first tick any bounded hook needs to observe, and never reaching a
// tick on which a thread would finish.
func (m *Machine) batchTicks(limit int) int {
	k := limit
	if k > maxBatchTicks {
		k = maxBatchTicks
	}
	for i := range m.hooks {
		h := &m.hooks[i]
		if h.next == nil {
			continue
		}
		// The batch stops on (and includes) the first tick whose time
		// reaches the boundary less boundarySlop: the tick on which the
		// consumer's own slop-tolerant check fires. A boundary at or
		// before now forces a single exact tick.
		if kb := m.ticksUntil(h.next() - boundarySlop); kb < k {
			k = kb
		}
	}
	c := &m.steady
	for i := 0; i < c.n && k > 1; i++ {
		u := &m.upds[i]
		// Conservative completion bound: the exact folded sum after j
		// additions deviates from instrDone + j*instr by at most j*eps
		// relative (j <= maxBatchTicks, so ~1e-11), while the 2-tick
		// safety margin is worth 2*instr — many orders larger. Within
		// the bound no thread can finish, so the batch commit's exact
		// fold never crosses instrTotal; the remaining ticks run through
		// Step, whose steadyReady check is tick-exact.
		q := (u.t.instrTotal - u.t.instrDone) / u.instr
		if q < float64(k)+3 {
			kt := int(q) - 2
			if kt < 1 {
				kt = 1
			}
			if kt < k {
				k = kt
			}
		}
	}
	if k < 1 {
		k = 1
	}
	return k
}

// ticksUntil returns the number of ticks serial stepping would take until
// now reaches t (at least one).
func (m *Machine) ticksUntil(t float64) int {
	span := t - m.now
	if !(span > 0) {
		return 1
	}
	if span > float64(1<<30)*m.Tick {
		return 1 << 30
	}
	k := 1
	if est := int(span / m.Tick); est > k {
		k = est
	}
	for k > 1 && float64(m.ticks+uint64(k-1))*m.Tick >= t {
		k--
	}
	for float64(m.ticks+uint64(k))*m.Tick < t {
		k++
	}
	return k
}

// RunFor advances the simulation by d seconds. It cannot fail: only a
// cancelled context stops RunForContext early.
func (m *Machine) RunFor(d float64) { _ = m.RunForContext(context.Background(), d) }

// RunUntilIdle advances until no process is running or pending, or until
// maxSeconds of additional simulated time elapse. It returns an error on
// timeout (which usually means a pending process was never placed).
func (m *Machine) RunUntilIdle(maxSeconds float64) error {
	return m.RunUntilIdleContext(context.Background(), maxSeconds)
}

// RunProcess is a convenience for characterization-style experiments: it
// submits bench with nThreads, places it on the given cores, runs to
// completion and returns the process. The machine must be otherwise idle.
func (m *Machine) RunProcess(b *workload.Benchmark, cores []chip.CoreID) (*Process, error) {
	p, err := m.Submit(b, len(cores))
	if err != nil {
		return nil, err
	}
	if err := m.Place(p, cores); err != nil {
		return nil, err
	}
	if err := m.RunUntilIdle(24 * 3600); err != nil {
		return nil, err
	}
	return p, nil
}
