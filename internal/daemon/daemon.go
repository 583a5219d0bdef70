// Package daemon implements the paper's contribution: the lightweight
// online monitoring daemon that guides process placement, per-PMD clock
// frequency and PCP supply voltage toward the best balanced
// energy/performance point (Sec. VI).
//
// The daemon has the paper's two parts:
//
//   - Monitoring: a periodic watchdog that reads the per-process L3C
//     access counters through the kernel-module protocol (two reads one
//     million cycles apart) and classifies every non-system process as
//     CPU-intensive or memory-intensive against the 3K-accesses-per-1M-
//     cycles threshold; it also tracks the utilized PMDs, which determine
//     the voltage-droop magnitude class (Table II).
//
//   - Placement: invoked on every process arrival, completion, or
//     classification change. It clusters CPU-intensive threads (fewest
//     utilized PMDs at maximum frequency), spreads memory-intensive
//     threads over the remaining PMDs at the reduced frequency class
//     (their performance barely depends on the core clock), and programs
//     the supply voltage to the Table II safe Vmin of the resulting
//     configuration.
//
// No Vmin predictor is used — the paper argues predictors are error-prone
// on real hardware. Instead every reconfiguration follows the fail-safe
// protocol: first raise the voltage to a level that is safe for both the
// old and the new configuration, then change placement and frequency, then
// lower the voltage to the new configuration's safe level. The simulator
// records a voltage emergency if the programmed voltage ever drops below
// the true requirement; the daemon's tests assert that never happens.
package daemon

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"

	"avfs/internal/chip"
	"avfs/internal/clock"
	"avfs/internal/droop"
	"avfs/internal/perfmon"
	"avfs/internal/sim"
	"avfs/internal/telemetry"
	"avfs/internal/vmin"
	"avfs/internal/workload"
)

// Class is the daemon's runtime classification of a process.
type Class int

const (
	// Unknown means not yet sampled; treated as CPU-intensive (the
	// performance-safe default) until the first measurement closes.
	Unknown Class = iota
	// CPUIntensive processes run at maximum frequency, clustered.
	CPUIntensive
	// MemoryIntensive processes run at the reduced frequency class,
	// spreaded.
	MemoryIntensive
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Unknown:
		return "unknown"
	case CPUIntensive:
		return "cpu-intensive"
	case MemoryIntensive:
		return "memory-intensive"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// classSyms are the classes' trace names.
var classSyms = [...]telemetry.Sym{
	Unknown:         telemetry.Intern(Unknown.String()),
	CPUIntensive:    telemetry.Intern(CPUIntensive.String()),
	MemoryIntensive: telemetry.Intern(MemoryIntensive.String()),
}

// sym returns the class's trace name.
func (c Class) sym() telemetry.Sym { return classSyms[c] }

// The decision rules the trace names.
var (
	ruleBelowLo      = telemetry.Intern("l3c<threshold-hyst")
	ruleHold         = telemetry.Intern("hysteresis-hold")
	ruleAboveHi      = telemetry.Intern("l3c>=threshold+hyst")
	ruleBelowHi      = telemetry.Intern("l3c<threshold+hyst")
	rulePlacement    = telemetry.Intern("cluster-cpu/spread-mem")
	ruleResettle     = telemetry.Intern("monitor-resettle")
	ruleFailSafe     = telemetry.Intern("fail-safe-raise")
	ruleNominalHold  = telemetry.Intern("nominal-hold")
	ruleApplyPlan    = telemetry.Intern("apply-plan")
	ruleSettleToVmin = telemetry.Intern("settle-to-safe-vmin")
)

// Config tunes the daemon. The zero value is not valid; use DefaultConfig.
type Config struct {
	// PollInterval is the monitoring period in seconds. The paper's 1M-
	// cycle window takes 300-500 ms depending on IPC; 0.4 s matches.
	PollInterval float64
	// L3CThreshold is the memory-intensive classification threshold in
	// L3C accesses per million cycles (Fig. 9).
	L3CThreshold float64
	// Hysteresis is the +/- fraction around the threshold a process must
	// cross to flip class, preventing reclassification thrash.
	Hysteresis float64
	// GuardMV is added above the Table II envelope when programming the
	// voltage (one regulator step by default).
	GuardMV chip.Millivolts
	// AdaptPlacement enables the placement/frequency policy. Disabled,
	// the daemon only monitors.
	AdaptPlacement bool
	// AdaptVoltage enables undervolting to the Table II safe Vmin.
	// Disabled, the voltage stays at whatever the chip is programmed to
	// (the paper's "Placement" configuration keeps it nominal).
	AdaptVoltage bool
	// MemFreqMHz overrides the frequency programmed on memory-intensive
	// PMDs; 0 selects the paper's choice (0.9 GHz deep division on
	// X-Gene 2, half speed on X-Gene 3). Used by the ablation studies.
	MemFreqMHz chip.MHz
	// CPUFreqMHz overrides the frequency programmed on CPU-intensive
	// PMDs; 0 selects the paper's choice (maximum frequency — the paper
	// restricts itself to minimal performance impact). Setting it to a
	// reduced class implements the paper's "relaxed performance
	// constraints" direction: larger energy savings for a visible
	// slowdown.
	CPUFreqMHz chip.MHz
	// TransitionTicks staggers reconfigurations over simulator ticks to
	// model the real latencies of voltage ramps and migrations: each
	// phase of the fail-safe protocol (raise voltage → reconfigure →
	// settle voltage) executes this many ticks after the previous one.
	// 0 applies transitions atomically within one tick.
	TransitionTicks int
	// UnsafeOrder is an ablation switch that inverts the fail-safe
	// protocol: reconfigure first, adjust the voltage afterwards. With
	// staggered transitions this exposes the voltage emergencies the
	// paper's ordering exists to prevent. Never enable outside studies.
	UnsafeOrder bool
}

// DefaultConfig returns the paper's "Optimal" configuration: placement,
// frequency and voltage adaptation all enabled.
func DefaultConfig() Config {
	return Config{
		PollInterval:   0.4,
		L3CThreshold:   workload.MemoryIntensiveThreshold,
		Hysteresis:     0.10,
		GuardMV:        5,
		AdaptPlacement: true,
		AdaptVoltage:   true,
	}
}

// PlacementOnlyConfig returns the paper's "Placement" configuration:
// placement and frequency adaptation at nominal voltage.
func PlacementOnlyConfig() Config {
	c := DefaultConfig()
	c.AdaptVoltage = false
	return c
}

// Stats counts the daemon's actions for reporting and tests.
type Stats struct {
	Polls           int
	Classifications int
	ClassFlips      int
	Placements      int
	Migrations      int
	VoltageChanges  int
	FreqChanges     int
}

// procState is the daemon's bookkeeping for one process.
type procState struct {
	proc  *sim.Process
	class Class
	// sample is the open measurement window; a migration off its core
	// set invalidates it.
	sample *perfmon.Sample
}

// procTable is the daemon's per-process bookkeeping, sorted by process
// ID: a poll adds running processes and a completion drops them. The
// daemon reads it while walking the machine's running list, which is in
// ascending ID order too, so a lookup first tries the entry after the
// last one found and searches only on a miss. A poll, a class count or
// a replan thus finds each process's state with one compare instead of
// hashing its ID.
type procTable struct {
	s []*procState
	// next is the index after the last entry found.
	next int
}

// search returns the index of id's entry, or where it would be inserted,
// and leaves next at the first entry past id.
func (t *procTable) search(id int) (int, bool) {
	if i := t.next; i < len(t.s) && t.s[i].proc.ID == id {
		t.next = i + 1
		return i, true
	}
	i, ok := slices.BinarySearchFunc(t.s, id, func(st *procState, id int) int { return cmp.Compare(st.proc.ID, id) })
	t.next = i
	if ok {
		t.next++
	}
	return i, ok
}

// get returns id's state, or nil.
func (t *procTable) get(id int) *procState {
	if i, ok := t.search(id); ok {
		return t.s[i]
	}
	return nil
}

// put stores st under its process's ID, replacing any state there.
func (t *procTable) put(st *procState) {
	if i, ok := t.search(st.proc.ID); ok {
		t.s[i] = st
	} else {
		t.s = slices.Insert(t.s, i, st)
		t.next = i + 1
	}
}

// remove drops id's state and returns it, or nil.
func (t *procTable) remove(id int) *procState {
	i, ok := t.search(id)
	if !ok {
		return nil
	}
	st := t.s[i]
	t.s = slices.Delete(t.s, i, i+1)
	t.next = i
	return st
}

// blockedKey identifies everything a placement plan depends on besides
// the configuration: the machine's placement generation (submissions,
// placements, migrations, completions), the chip's electrical
// generation, the daemon's class epoch and the pending count.
type blockedKey struct {
	placeGen   uint64
	chipGen    uint64
	classEpoch uint64
	pending    int
}

// Daemon is the online monitoring daemon bound to one machine.
type Daemon struct {
	M   *sim.Machine
	Cfg Config

	pmu      *perfmon.PMU
	sampler  perfmon.DeltaSampler
	states   procTable
	nextPoll float64
	// dirty is set when arrivals/completions require a placement pass.
	dirty bool
	// classEpoch counts class changes; poll bumps it on every one.
	classEpoch uint64
	// blocked is the key of the last replan that changed nothing while
	// work was pending (the FIFO head did not fit), valid while
	// blockedOK. As long as the key still matches, a replan would change
	// nothing again, so tick skips it and the machine may coalesce up to
	// the next poll. It is not captured in snapshots: a restored daemon
	// replans once, as a no-op, and re-establishes it.
	blocked   blockedKey
	blockedOK bool

	// queue holds the staged phases of an in-flight transition when
	// Cfg.TransitionTicks > 0, cut from phases; tr is what those phases
	// share and pl the plan they apply. cooldown counts ticks until the
	// next phase fires. None is captured in snapshots: CaptureState
	// refuses while the queue is non-empty, and every enqueue resets
	// cooldown.
	queue    []phase
	phases   [len(safeOrder)]phase
	tr       inflight
	pl       plan
	cooldown int

	// disabled suspends the daemon's decision loop (see SetEnabled): ticks
	// only drain an in-flight staged transition — the fail-safe sequence
	// always completes — and take no new decisions. The fleet service uses
	// this to switch a live session between the Table IV policies.
	disabled bool

	stats Stats

	// curFreq/curUtil are currentRequired's per-PMD scratch; jobs and
	// memSlots are buildPlan's; cores is openSample's, and spare holds
	// the measurement windows of finished processes for it to reuse.
	// Replans and polls reuse them instead of allocating.
	curFreq  []chip.MHz
	curUtil  []bool
	jobs     []planJob
	memSlots []chip.CoreID
	cores    []chip.CoreID
	spare    []*perfmon.Sample

	// Telemetry (all nil/zero when uninstrumented — the hot path then
	// pays only nil checks; the overhead benchmark in internal/telemetry
	// keeps that claim honest).
	tracer    *telemetry.Tracer
	hLatency  *telemetry.Histogram
	hMargin   *telemetry.Histogram
	reconfigs int64
}

// Metric names the daemon registers, shared with status/sysfs/tests.
const (
	MetricPolls           = "avfsd_polls_total"
	MetricClassifications = "avfsd_classifications_total"
	MetricClassFlips      = "avfsd_class_flips_total"
	MetricPlacements      = "avfsd_placements_total"
	MetricMigrations      = "avfsd_migrations_total"
	MetricVoltageChanges  = "avfsd_voltage_changes_total"
	MetricFreqChanges     = "avfsd_freq_changes_total"
	MetricReconfigs       = "avfsd_reconfigurations_total"
	MetricReconfigLatency = "avfsd_reconfig_latency_seconds"
	MetricGuardMargin     = "avfsd_guard_margin_millivolts"
	MetricResidency       = "avfsd_pmd_residency_seconds"
)

// Instrument wires the daemon into a telemetry registry and decision
// tracer (either may be nil). The action counters are registered as
// CounterFuncs over the same Stats the interactive status command prints,
// so exported metrics and status can never disagree. Call before Attach.
func (d *Daemon) Instrument(reg *telemetry.Registry, tr *telemetry.Tracer) {
	d.tracer = tr
	if reg == nil {
		return
	}
	counters := []struct {
		name, help string
		fn         func() float64
	}{
		{MetricPolls, "Monitoring polls executed.", func() float64 { return float64(d.stats.Polls) }},
		{MetricClassifications, "Measurement windows classified.", func() float64 { return float64(d.stats.Classifications) }},
		{MetricClassFlips, "Classification changes (churn bounded by hysteresis).", func() float64 { return float64(d.stats.ClassFlips) }},
		{MetricPlacements, "Pending processes admitted and placed.", func() float64 { return float64(d.stats.Placements) }},
		{MetricMigrations, "Running processes migrated.", func() float64 { return float64(d.stats.Migrations) }},
		{MetricVoltageChanges, "Regulator programmings.", func() float64 { return float64(d.stats.VoltageChanges) }},
		{MetricFreqChanges, "PMD clock programmings.", func() float64 { return float64(d.stats.FreqChanges) }},
		{MetricReconfigs, "Fail-safe transition sequences started (a replan that changes nothing starts none).", func() float64 { return float64(d.reconfigs) }},
	}
	for _, c := range counters {
		reg.CounterFunc(c.name, c.help, c.fn)
	}
	d.hLatency = reg.Histogram(MetricReconfigLatency,
		"Simulated seconds from reconfiguration decision to voltage settle.",
		[]float64{0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2})
	d.hMargin = reg.Histogram(MetricGuardMargin,
		"Programmed voltage minus true safe Vmin, sampled at each poll.",
		[]float64{0, 5, 10, 20, 40, 80, 160})
	for p := 0; p < d.M.Spec.PMDs(); p++ {
		for _, fc := range clock.Classes(d.M.Spec) {
			reg.CounterFunc(MetricResidency,
				"Seconds each PMD spent programmed in each frequency class.",
				func() float64 { return float64(d.M.Residency(chip.PMDID(p), fc)) * d.M.Tick },
				telemetry.Label{Key: "pmd", Value: strconv.Itoa(p)},
				telemetry.Label{Key: "class", Value: fc.String()})
		}
	}
}

// Reconfigurations returns how many fail-safe transition sequences the
// daemon has started.
func (d *Daemon) Reconfigurations() int64 { return d.reconfigs }

// traceActive reports whether decision tracing should emit.
func (d *Daemon) traceActive() bool { return d.tracer != nil && d.tracer.Active() }

// New creates a daemon for a machine. Call Attach to start it.
func New(m *sim.Machine, cfg Config) *Daemon {
	if cfg.PollInterval <= 0 {
		panic("daemon: PollInterval must be positive")
	}
	pmu := &perfmon.PMU{M: m}
	return &Daemon{
		M:       m,
		Cfg:     cfg,
		pmu:     pmu,
		sampler: perfmon.DeltaSampler{PMU: pmu},
		curFreq: make([]chip.MHz, m.Spec.PMDs()),
		curUtil: make([]bool, m.Spec.PMDs()),
	}
}

// Stats returns a copy of the daemon's action counters.
func (d *Daemon) Stats() Stats { return d.stats }

// ClassOf returns the daemon's current classification of a process
// (Unknown for processes it has not sampled yet).
func (d *Daemon) ClassOf(p *sim.Process) Class {
	if st := d.states.get(p.ID); st != nil {
		return st.class
	}
	return Unknown
}

// ClassCounts returns how many running processes are currently classified
// CPU-intensive and memory-intensive (Unknown counts as CPU-intensive,
// matching the placement default) — the Fig. 15 observable.
func (d *Daemon) ClassCounts() (cpu, mem int) {
	for _, p := range d.M.RunningView() {
		if d.ClassOf(p) == MemoryIntensive {
			mem++
		} else {
			cpu++
		}
	}
	return
}

// Attach hooks the daemon into the machine's event loop. The hook is
// batch-aware: while the daemon has no staged transition, no dirty
// placement and no pending arrival it has not yet found blocked, the
// machine may coalesce steady ticks up to the daemon's next poll instant.
func (d *Daemon) Attach() {
	d.M.OnFinish(func(p *sim.Process) {
		if st := d.states.remove(p.ID); st != nil && st.sample != nil {
			d.spare = append(d.spare, st.sample)
		}
		d.dirty = true
	})
	d.M.OnTickBounded(func(*sim.Machine, int) { d.tick() }, d.nextBoundary)
	// Establish the initial electrical state.
	d.dirty = true
}

// nextBoundary reports the next simulation time the daemon must observe a
// tick-exact step. Any in-flight transition, dirty placement or pending
// arrival that needs a replan requires per-tick processing (return a time
// already passed); otherwise — including while the pending queue is
// blocked behind a head that does not fit — the daemon sleeps until its
// next monitoring poll. A disabled daemon with no staged transition left
// imposes no boundary at all.
func (d *Daemon) nextBoundary() float64 {
	if len(d.queue) > 0 {
		return 0
	}
	if d.disabled {
		return math.Inf(1)
	}
	if d.dirty || d.needsReplan() {
		return 0
	}
	return d.nextPoll
}

// needsReplan reports whether pending work calls for a placement pass:
// something is pending and the queue is not known to be blocked under
// the current key.
func (d *Daemon) needsReplan() bool {
	return d.M.PendingCount() > 0 && !(d.blockedOK && d.blocked == d.key())
}

// key returns the current blockedKey.
func (d *Daemon) key() blockedKey {
	return blockedKey{
		placeGen:   d.M.PlacementGeneration(),
		chipGen:    d.M.Chip.Generation(),
		classEpoch: d.classEpoch,
		pending:    d.M.PendingCount(),
	}
}

// SetEnabled suspends or resumes the daemon's decision loop. Disabling
// never interrupts an in-flight staged transition — the fail-safe voltage
// protocol runs to completion — but no new polls, classifications or
// placements happen until re-enabled. Re-enabling marks the placement
// dirty so the next tick replans immediately. A daemon starts enabled.
func (d *Daemon) SetEnabled(on bool) {
	if d.disabled == !on {
		return
	}
	d.disabled = !on
	if on {
		d.dirty = true
		d.nextPoll = d.M.Now()
	}
}

// Reconfigure swaps the daemon's configuration at runtime (the service
// layer's policy flips). It validates like New, refuses to interleave with
// a staged transition, and marks the placement dirty so the next tick
// replans — and re-settles the voltage — under the new policy.
func (d *Daemon) Reconfigure(cfg Config) error {
	if cfg.PollInterval <= 0 {
		return fmt.Errorf("daemon: PollInterval must be positive")
	}
	if len(d.queue) > 0 {
		return fmt.Errorf("daemon: transition in flight; retry after it settles")
	}
	d.Cfg = cfg
	d.dirty = true
	d.nextPoll = d.M.Now()
	return nil
}

// tick is the daemon's end-of-commit entry point, after a commit of one
// tick or of a coalesced batch.
func (d *Daemon) tick() {
	// An in-flight staged transition runs to completion before any new
	// decision is taken (the controller is busy actuating).
	if len(d.queue) > 0 {
		if d.cooldown > 0 {
			d.cooldown--
			return
		}
		ph := d.queue[0]
		d.queue = d.queue[1:]
		d.runPhase(ph)
		d.cooldown = d.Cfg.TransitionTicks
		return
	}
	// A suspended daemon takes no new decisions (see SetEnabled).
	if d.disabled {
		return
	}
	// Arrivals: pending work triggers the placement path, unless the
	// last replan found the queue blocked and nothing has changed since.
	if d.needsReplan() {
		d.dirty = true
	}
	if d.dirty {
		d.dirty = false
		d.replace()
		if len(d.queue) > 0 {
			return
		}
	}
	if d.M.Now()+1e-12 >= d.nextPoll {
		d.poll()
		d.nextPoll = d.M.Now() + d.Cfg.PollInterval
	}
}

// TransitionInFlight reports whether a staged transition is executing.
func (d *Daemon) TransitionInFlight() bool { return len(d.queue) > 0 }

// poll is the Monitoring part: close measurement windows, classify, and
// adjust frequencies/voltage when a class flips (utilized PMDs stay as
// they are — the paper only migrates on arrival/completion).
func (d *Daemon) poll() {
	d.stats.Polls++
	if d.hMargin != nil {
		d.hMargin.Observe(float64(d.M.Chip.Voltage() - d.M.RequiredSafeVmin()))
	}
	flipped := false
	// Nothing in the loop changes the running set or the placement, so it
	// iterates the machine's own list (a steady poll allocates nothing)
	// and the traced utilization is read once per poll, on first use.
	utilized := -1
	var droopClass droop.MagnitudeClass
	for _, p := range d.M.RunningView() {
		st := d.state(p)
		if st.sample == nil || !onCores(p, st.sample.Cores()) {
			d.openSample(st, p)
			continue
		}
		if !st.sample.Ready() {
			continue // fewer than 1M cycles elapsed; keep waiting
		}
		meas := st.sample.Close()
		rate := meas.L3CPer1M(len(st.sample.Cores()))
		d.stats.Classifications++
		newClass, rule := d.classify(st.class, rate)
		if d.traceActive() {
			if utilized < 0 {
				utilized = d.M.UtilizedPMDCount()
				droopClass = droop.ClassOfPMDs(d.M.Spec, utilized)
			}
			d.tracer.Emit(telemetry.Record{
				At: d.M.Now(), Kind: telemetry.DecClassify, Rule: rule,
				Proc: int32(p.ID), Class: newClass.sym(), Value: rate,
				UtilizedPMDs: uint16(utilized), DroopClass: uint8(droopClass),
			})
		}
		if newClass != st.class {
			if st.class != Unknown {
				d.stats.ClassFlips++
				if d.traceActive() {
					d.tracer.Emit(telemetry.Record{
						At: d.M.Now(), Kind: telemetry.DecClassFlip, Rule: rule,
						Proc: int32(p.ID), Class: newClass.sym(), PrevClass: st.class.sym(),
						Value: rate,
					})
				}
			}
			st.class = newClass
			d.classEpoch++
			flipped = true
		}
		st.sample.Rearm()
	}
	if flipped && d.Cfg.AdaptPlacement {
		d.retune()
	}
}

// openSample opens st's measurement window over p's cores. A process that
// moved reopens its window in place, and a new one takes a window a
// finished process left before a fresh one is allocated.
func (d *Daemon) openSample(st *procState, p *sim.Process) {
	d.cores = p.AppendCores(d.cores[:0])
	if st.sample == nil && len(d.spare) > 0 {
		last := len(d.spare) - 1
		st.sample, d.spare[last] = d.spare[last], nil
		d.spare = d.spare[:last]
	}
	if st.sample == nil {
		st.sample = d.sampler.Open(d.cores)
		return
	}
	st.sample.Retarget(d.cores)
}

// classify applies the threshold with hysteresis, returning the new class
// and the rule that fired (for the decision trace).
func (d *Daemon) classify(cur Class, rate float64) (Class, telemetry.Sym) {
	hi := d.Cfg.L3CThreshold * (1 + d.Cfg.Hysteresis)
	lo := d.Cfg.L3CThreshold * (1 - d.Cfg.Hysteresis)
	switch cur {
	case MemoryIntensive:
		if rate < lo {
			return CPUIntensive, ruleBelowLo
		}
		return MemoryIntensive, ruleHold
	default:
		if rate >= hi {
			return MemoryIntensive, ruleAboveHi
		}
		return CPUIntensive, ruleBelowHi
	}
}

// state returns (creating if needed) the bookkeeping for p.
func (d *Daemon) state(p *sim.Process) *procState {
	st := d.states.get(p.ID)
	if st == nil {
		st = &procState{proc: p, class: Unknown}
		d.states.put(st)
	}
	return st
}

// onCores reports whether p's threads sit exactly on cores, in order
// (p.Cores() == cores, without building the list).
func onCores(p *sim.Process, cores []chip.CoreID) bool {
	if len(p.Threads) != len(cores) {
		return false
	}
	for i, t := range p.Threads {
		if t.Core != cores[i] {
			return false
		}
	}
	return true
}

// memFreq returns the frequency programmed on memory-intensive PMDs: the
// configured override, or the paper's choice — the deep clock-division
// point on X-Gene 2 (0.9 GHz, ~12% Vmin reduction) and the half-speed
// point on X-Gene 3.
func (d *Daemon) memFreq() chip.MHz {
	if d.Cfg.MemFreqMHz != 0 {
		return d.M.Spec.ClampFreq(d.Cfg.MemFreqMHz)
	}
	if d.M.Spec.Model == chip.XGene2 {
		return clock.XGene2DividedLowMax
	}
	return d.M.Spec.HalfFreq()
}

// memFreqClass returns the frequency class of the memory-PMD setting.
func (d *Daemon) memFreqClass() clock.FreqClass {
	return clock.ClassOf(d.M.Spec, d.memFreq())
}

// cpuFreq returns the frequency programmed on CPU-intensive PMDs: the
// configured override, or the maximum clock (the paper's choice).
func (d *Daemon) cpuFreq() chip.MHz {
	if d.Cfg.CPUFreqMHz != 0 {
		return d.M.Spec.ClampFreq(d.Cfg.CPUFreqMHz)
	}
	return d.M.Spec.MaxFreq
}

// requiredMV returns the Table II voltage (envelope + guard) for a set of
// per-PMD frequencies and a utilized-PMD set: the worst requirement among
// utilized PMDs. Idle machines fall back to the lowest table entry.
func (d *Daemon) requiredMV(pmdFreq []chip.MHz, utilized []bool) chip.Millivolts {
	spec := d.M.Spec
	n := 0
	for _, u := range utilized {
		if u {
			n++
		}
	}
	if n == 0 {
		return vmin.ClassEnvelope(spec, d.memFreqClass(), 1) + d.Cfg.GuardMV
	}
	var req chip.Millivolts
	for p, u := range utilized {
		if !u {
			continue
		}
		fc := clock.ClassOf(spec, pmdFreq[p])
		v := vmin.ClassEnvelope(spec, fc, n) + d.Cfg.GuardMV
		if v > req {
			req = v
		}
	}
	return req
}

// currentRequired computes the Table II requirement of the machine's
// present placement and frequencies.
func (d *Daemon) currentRequired() chip.Millivolts {
	spec := d.M.Spec
	for p := range d.curFreq {
		pmd := chip.PMDID(p)
		c0, c1 := spec.CoresOf(pmd)
		d.curFreq[p] = d.M.Chip.PMDFreq(pmd)
		d.curUtil[p] = d.M.ThreadOn(c0) != nil || d.M.ThreadOn(c1) != nil
	}
	return d.requiredMV(d.curFreq, d.curUtil)
}

// setVoltage programs the regulator if the target differs, counting the
// action.
func (d *Daemon) setVoltage(v chip.Millivolts) {
	if d.M.Chip.Voltage() != d.M.Spec.ClampVoltage(v) {
		d.M.Chip.SetVoltage(v)
		d.stats.VoltageChanges++
	}
}

// setFreq programs one PMD if the target differs, counting the action.
func (d *Daemon) setFreq(p chip.PMDID, f chip.MHz) {
	if d.M.Chip.PMDFreq(p) != d.M.Spec.ClampFreq(f) {
		d.M.Chip.SetPMDFreq(p, f)
		d.stats.FreqChanges++
	}
}

// planJob is one process the placement policy places, with its class.
type planJob struct {
	proc *sim.Process
	cls  Class
}

// plan is a complete target configuration produced by the placement
// policy; admitted counts the pending processes it places. A plan from
// buildPlan carries a placement (place is set, and assign maps every
// planned process to its cores, cut from arena); one from retune only
// reprograms frequencies and voltage. The transition that applies a plan
// consumes its assign map.
//
// The daemon fills one plan for every replan and retune: a plan is
// applied before the next decision is taken (tick takes none while a
// staged transition is in flight), so two plans are never live at once.
type plan struct {
	place    bool
	assign   map[*sim.Process][]chip.CoreID
	arena    []chip.CoreID
	pmdFreq  []chip.MHz
	utilized []bool
	admitted int
}

// reset empties the plan for a chip of spec's shape: no placement, every
// PMD unutilized at the minimum frequency.
func (pl *plan) reset(spec *chip.Spec) {
	if pl.assign == nil {
		pl.assign = map[*sim.Process][]chip.CoreID{}
		pl.arena = make([]chip.CoreID, 0, spec.Cores)
		pl.pmdFreq = make([]chip.MHz, spec.PMDs())
		pl.utilized = make([]bool, spec.PMDs())
	}
	pl.place, pl.admitted = false, 0
	clear(pl.assign)
	pl.arena = pl.arena[:0]
	for p := range pl.pmdFreq {
		pl.pmdFreq[p] = spec.MinFreq
	}
	clear(pl.utilized)
}

// replace is the Placement part for arrival/completion events: it computes
// the full target assignment and applies it under the fail-safe protocol.
// A plan that admits nothing and matches the machine's cores, PMD
// frequencies and voltage is not a reconfiguration: replace returns
// without starting a transition, and with work pending it records the
// blocked key so later ticks skip the identical replan.
func (d *Daemon) replace() {
	d.blockedOK = false
	if !d.Cfg.AdaptPlacement {
		// Monitoring-only mode: nothing to place (an external placer
		// owns the cores), but voltage adaptation may still apply.
		if d.Cfg.AdaptVoltage && d.M.Chip.Voltage() != d.M.Spec.ClampVoltage(d.currentRequired()) {
			d.transition(nil)
			return
		}
		d.noop()
		return
	}
	pl := d.buildPlan()
	if pl.admitted == 0 && d.applied(pl) {
		clear(pl.assign) // the plan holds no process past its use
		d.noop()
		return
	}
	if d.traceActive() {
		utilized := 0
		for _, u := range pl.utilized {
			if u {
				utilized++
			}
		}
		d.tracer.Emit(telemetry.Record{
			At: d.M.Now(), Kind: telemetry.DecPlacement,
			Rule: rulePlacement, Proc: -1,
			UtilizedPMDs: uint16(utilized),
			DroopClass:   uint8(droop.ClassOfPMDs(d.M.Spec, utilized)),
			N:            int32(len(pl.assign)),
		})
	}
	d.transition(pl)
}

// noop finishes a replan that changed nothing, recording the blocked key
// when work is pending.
func (d *Daemon) noop() {
	if d.M.PendingCount() > 0 {
		d.blocked, d.blockedOK = d.key(), true
	}
}

// applied reports whether transition(pl) would change nothing: every
// planned process already runs on its planned cores, every PMD already
// runs at its planned frequency, and both the guard raise and the settle
// would leave the voltage where it is. The caller has checked that pl
// admits no pending process.
func (d *Daemon) applied(pl *plan) bool {
	for p, cores := range pl.assign {
		if !onCores(p, cores) {
			return false
		}
	}
	spec := d.M.Spec
	for p, f := range pl.pmdFreq {
		if d.M.Chip.PMDFreq(chip.PMDID(p)) != spec.ClampFreq(f) {
			return false
		}
	}
	v := d.M.Chip.Voltage()
	if !d.Cfg.AdaptVoltage {
		return v >= spec.NominalMV
	}
	target := d.requiredMV(pl.pmdFreq, pl.utilized)
	return v == spec.ClampVoltage(target) && v == spec.ClampVoltage(maxMV(d.currentRequired(), target))
}

// retune re-programs frequencies (and voltage) for the current placement
// after classification changes, without migrating anything: utilized PMDs
// can only change on arrival/completion (Sec. VI-A).
func (d *Daemon) retune() {
	spec := d.M.Spec
	pl := &d.pl
	pl.reset(spec)
	for _, proc := range d.M.RunningView() {
		cls := d.ClassOf(proc)
		for _, t := range proc.Threads {
			if t.Core < 0 {
				continue
			}
			pmd := spec.PMDOf(t.Core)
			pl.utilized[pmd] = true
			want := d.cpuFreq()
			if cls == MemoryIntensive {
				want = d.memFreq()
			}
			if want > pl.pmdFreq[pmd] {
				pl.pmdFreq[pmd] = want
			}
		}
	}
	d.transition(pl)
}

// buildPlan computes the daemon's target placement:
//
//   - CPU-intensive (and Unknown) threads are clustered onto the lowest
//     PMDs at maximum frequency — fewest utilized PMDs, lowest droop class.
//   - Memory-intensive threads are spreaded one-per-PMD over the highest
//     PMDs at the reduced frequency — private L2s, and their PMDs' slower
//     clocks do not bind the voltage.
//   - Memory threads overflow onto second cores of memory PMDs when the
//     chip is too full to spread.
//
// Pending processes are admitted FIFO while capacity lasts.
func (d *Daemon) buildPlan() *plan {
	spec := d.M.Spec
	jobs := d.jobs[:0]
	capacity := spec.Cores
	for _, p := range d.M.RunningView() {
		jobs = append(jobs, planJob{p, d.ClassOf(p)})
		capacity -= len(p.Threads)
	}
	admitted := 0
	for _, p := range d.M.Pending() {
		if len(p.Threads) > capacity {
			break // FIFO admission
		}
		jobs = append(jobs, planJob{p, Unknown})
		capacity -= len(p.Threads)
		admitted++
	}
	d.jobs = jobs
	defer clear(jobs) // the scratch holds no process past the plan
	d.stats.Placements += admitted

	pl := &d.pl
	pl.reset(spec)
	pl.place, pl.admitted = true, admitted
	// Every planned core list is cut from the plan's arena: admission
	// keeps the plan within the chip's cores, so the arena never grows.
	// Thread demand is split by class, preserving process order: CPU jobs
	// (and Unknown) first, then memory jobs.
	arena := pl.arena

	// CPU block: consecutive cores from 0 upwards.
	next := 0
	for _, j := range jobs {
		if j.cls == MemoryIntensive {
			continue
		}
		start := len(arena)
		for range j.proc.Threads {
			arena = append(arena, chip.CoreID(next))
			next++
		}
		pl.assign[j.proc] = arena[start:len(arena):len(arena)]
	}
	cpuPMDs := (next + 1) / 2

	// Memory threads: spread over PMDs from the top downwards, even
	// cores first; overflow fills odd cores, still from the top.
	memSlots := d.memSlots[:0]
	for p := spec.PMDs() - 1; p >= cpuPMDs; p-- {
		c0, _ := spec.CoresOf(chip.PMDID(p))
		memSlots = append(memSlots, c0)
	}
	for p := spec.PMDs() - 1; p >= cpuPMDs; p-- {
		_, c1 := spec.CoresOf(chip.PMDID(p))
		memSlots = append(memSlots, c1)
	}
	// If the CPU block ends mid-PMD, its odd core is a last-resort slot.
	if next%2 == 1 {
		memSlots = append(memSlots, chip.CoreID(next))
	}
	d.memSlots = memSlots
	slot := 0
	for _, j := range jobs {
		if j.cls != MemoryIntensive {
			continue
		}
		start := len(arena)
		for range j.proc.Threads {
			if slot >= len(memSlots) {
				panic("daemon: placement overflow despite admission control")
			}
			arena = append(arena, memSlots[slot])
			slot++
		}
		pl.assign[j.proc] = arena[start:len(arena):len(arena)]
	}
	pl.arena = arena

	// Frequencies: max on PMDs with any CPU/Unknown thread, reduced on
	// memory-only PMDs.
	for _, j := range jobs {
		if j.cls == MemoryIntensive {
			continue
		}
		for _, c := range pl.assign[j.proc] {
			pmd := spec.PMDOf(c)
			pl.utilized[pmd] = true
			pl.pmdFreq[pmd] = d.cpuFreq()
		}
	}
	for _, j := range jobs {
		if j.cls != MemoryIntensive {
			continue
		}
		for _, c := range pl.assign[j.proc] {
			pmd := spec.PMDOf(c)
			pl.utilized[pmd] = true
			if pl.pmdFreq[pmd] < d.memFreq() {
				pl.pmdFreq[pmd] = d.memFreq()
			}
		}
	}
	return pl
}

// phase is one step of the fail-safe protocol.
type phase uint8

const (
	// phaseRaise raises the voltage to a level safe for both the current
	// and the target configuration.
	phaseRaise phase = iota
	// phaseReconfigure applies the migrations, placements and per-PMD
	// frequencies.
	phaseReconfigure
	// phaseSettle lowers the voltage to the target's safe level.
	phaseSettle
)

// The protocol's phase orders: the fail-safe one, and its inversion for
// the Cfg.UnsafeOrder ablation (actuate first, fix the voltage
// afterwards — the intermediate state can sit below its safe Vmin).
var (
	safeOrder   = [...]phase{phaseRaise, phaseReconfigure, phaseSettle}
	unsafeOrder = [...]phase{phaseReconfigure, phaseRaise, phaseSettle}
)

// inflight is what the phases of one transition share besides the plan
// they apply, d.pl.
type inflight struct {
	rid     int64
	started float64
	// target is the settle level (nominal without voltage adaptation)
	// and guard the raise level; raiseRule names the raise in the trace.
	target, guard chip.Millivolts
	raiseRule     telemetry.Sym
	utilized      int
}

// transition applies a plan under the fail-safe voltage protocol:
// raise first, reconfigure, then lower. A nil plan means "re-settle the
// voltage for the current configuration" (monitoring-only mode).
//
// With Cfg.TransitionTicks > 0 the three phases are staged over simulator
// ticks (modelling regulator ramp and migration latency); the ordering is
// what keeps the staged intermediate states safe. Cfg.UnsafeOrder inverts
// it for the protocol ablation.
func (d *Daemon) transition(pl *plan) {
	nominal := d.M.Spec.NominalMV
	d.reconfigs++
	var rid int64
	if d.tracer != nil {
		rid = d.tracer.NextReconfig()
	}
	started := d.M.Now()

	if pl == nil {
		if d.Cfg.AdaptVoltage {
			// Degenerate fail-safe sequence: the configuration does not
			// change, so the current voltage is already the guard level.
			req := d.currentRequired()
			cur := d.M.Chip.Voltage()
			safe := maxMV(cur, req)
			if d.traceActive() {
				d.tracer.Emit(telemetry.Record{
					At: d.M.Now(), Kind: telemetry.DecGuardRaise, Reconfig: rid,
					Rule: ruleResettle, Proc: -1,
					From: int32(cur), To: int32(safe), Required: int32(req),
				})
			}
			d.setVoltage(req)
			if d.traceActive() {
				d.tracer.Emit(telemetry.Record{
					At: d.M.Now(), Kind: telemetry.DecSettle, Reconfig: rid,
					Rule: ruleResettle, Proc: -1,
					From: int32(safe), To: int32(d.M.Chip.Voltage()), Required: int32(req),
				})
			}
			if d.hLatency != nil {
				d.hLatency.Observe(d.M.Now() - started)
			}
		}
		return
	}

	tr := inflight{rid: rid, started: started, target: d.requiredMV(pl.pmdFreq, pl.utilized)}
	for _, u := range pl.utilized {
		if u {
			tr.utilized++
		}
	}
	if d.Cfg.AdaptVoltage {
		tr.guard, tr.raiseRule = maxMV(d.currentRequired(), tr.target), ruleFailSafe
	} else {
		tr.target, tr.guard, tr.raiseRule = nominal, nominal, ruleNominalHold
	}
	d.tr = tr

	order := safeOrder
	if d.Cfg.UnsafeOrder {
		order = unsafeOrder
	}
	if d.Cfg.TransitionTicks <= 0 {
		for _, ph := range order {
			d.runPhase(ph)
		}
		return
	}
	d.queue = append(d.phases[:0], order[:]...)
	d.cooldown = 0
}

// runPhase executes one phase of the in-flight transition d.tr.
func (d *Daemon) runPhase(ph phase) {
	tr := &d.tr
	switch ph {
	case phaseRaise:
		from := d.M.Chip.Voltage()
		if tr.guard > from {
			d.setVoltage(tr.guard)
		}
		if d.traceActive() {
			d.tracer.Emit(telemetry.Record{
				At: d.M.Now(), Kind: telemetry.DecGuardRaise, Reconfig: tr.rid,
				Rule: tr.raiseRule, Proc: -1,
				From: int32(from), To: int32(d.M.Chip.Voltage()),
				Required: int32(tr.target), UtilizedPMDs: uint16(tr.utilized),
				DroopClass: uint8(droop.ClassOfPMDs(d.M.Spec, tr.utilized)),
				N:          int32(tr.guard),
			})
		}
	case phaseReconfigure:
		pl := &d.pl
		migrations := 0
		if pl.place {
			// Processes may have finished while the transition was
			// staged; their planned cores are simply free by now, and
			// they leave the plan.
			for p, cores := range pl.assign {
				if p.State == sim.Finished {
					delete(pl.assign, p)
					continue
				}
				if p.State == sim.Running && !onCores(p, cores) {
					migrations++
				}
			}
			if err := d.M.Reassign(pl.assign); err != nil {
				panic(fmt.Sprintf("daemon: reassign failed: %v", err))
			}
			clear(pl.assign) // the plan holds no process past its use
			d.stats.Migrations += migrations
		}
		for p := range pl.pmdFreq {
			d.setFreq(chip.PMDID(p), pl.pmdFreq[p])
		}
		if d.traceActive() {
			d.tracer.Emit(telemetry.Record{
				At: d.M.Now(), Kind: telemetry.DecReconfigure, Reconfig: tr.rid,
				Rule: ruleApplyPlan, Proc: -1,
				UtilizedPMDs: uint16(tr.utilized),
				DroopClass:   uint8(droop.ClassOfPMDs(d.M.Spec, tr.utilized)),
				N:            int32(migrations),
			})
		}
	case phaseSettle:
		if d.Cfg.AdaptVoltage {
			from := d.M.Chip.Voltage()
			d.setVoltage(tr.target)
			if d.traceActive() {
				d.tracer.Emit(telemetry.Record{
					At: d.M.Now(), Kind: telemetry.DecSettle, Reconfig: tr.rid,
					Rule: ruleSettleToVmin, Proc: -1,
					From: int32(from), To: int32(d.M.Chip.Voltage()),
					Required: int32(tr.target), UtilizedPMDs: uint16(tr.utilized),
					DroopClass: uint8(droop.ClassOfPMDs(d.M.Spec, tr.utilized)),
				})
			}
		}
		if d.hLatency != nil {
			d.hLatency.Observe(d.M.Now() - tr.started)
		}
	}
}

func maxMV(a, b chip.Millivolts) chip.Millivolts {
	if a > b {
		return a
	}
	return b
}

// DroopClass reports the current droop magnitude class of the machine, for
// observability (Table II's left column).
func (d *Daemon) DroopClass() droop.MagnitudeClass {
	return droop.ClassOfPMDs(d.M.Spec, d.M.UtilizedPMDCount())
}
