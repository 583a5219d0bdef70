package sim

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math"
	"sync"
	"sync/atomic"

	"avfs/internal/chip"
	"avfs/internal/power"
)

// memoVersion tags the signature encoding; bump it whenever the set of
// inputs stepFull reads (and the signature must therefore cover) changes,
// so stale processes sharing a memo can never serve mismatched ticks.
const memoVersion = 1

// defaultMemoEntries bounds a SteadyMemo's size. A fleet hosts a few
// distinct (policy, placement, workload) equilibria per chip model, and
// each transient between equilibria contributes a handful of converging
// configurations, so a few thousand segments cover realistic populations
// with room to spare.
const defaultMemoEntries = 4096

// memoKey is the content address of a full-tick segment: a seeded
// 64-bit hash of the encoded pre-tick signature. The hash only routes
// the lookup — every probe and publish compares the full stored
// signature bytes, so a hash collision can cost a miss but can never
// serve a mismatched tick. The probe path runs once per transient tick
// per machine, which is why this is a single-pass seeded hash rather
// than a cryptographic digest.
type memoKey = uint64

// memoLane is one running thread's configuration-determined share of a
// memoized full tick, keyed by the core the lane was bound to when the
// segment was published. Progress-dependent values (the clamped
// increment, its integer counters) are deliberately absent: the serve
// path rederives them from the subscriber's own progress with the exact
// float expressions stepFull uses, which is what lets machines at
// different points of the same stretch — even a tick away from a clamp
// or a completion — share one segment.
type memoLane struct {
	core      chip.CoreID
	fGHz      float64
	l2Infl    float64
	cpi       float64
	instrRaw  float64 // unclamped per-tick progress, cycles/cpi
	cycles    float64
	coreW     float64
	dCycles   uint64
	stallFrac float64 // post-tick stall fraction committed by Phase 5
}

// steadySegment is one memoized full tick: every configuration-determined
// result of stepFull's phases — the contention fixed point, the power
// integration, the Vmin requirement — for replay on any machine whose
// pre-tick signature matches. watts/bd are the tick's own power
// (computed against pre-tick stall fractions); when the publisher's tick
// closed in equilibrium, steadyValid is set and steadyWatts/steadyBD
// carry the steady cache's power (post-tick stall fractions), so a
// served machine leaves the tick with exactly the cache a solo
// convergence would have built.
type steadySegment struct {
	key         []byte
	watts       float64
	bd          power.Breakdown
	memRho      float64
	reqMV       chip.Millivolts
	steadyValid bool
	steadyWatts float64
	steadyBD    power.Breakdown
	lanes       []memoLane
}

// SteadyMemo is a content-addressed, cross-session store of full-tick
// results. Machines attached to the same memo (SetSteadyMemo) share
// convergence work: the first machine to run a full tick in some
// configuration publishes the tick's configuration-determined results
// under the hash of its pre-tick signature, and every other machine
// reaching a bitwise-identical configuration replays the published tick
// instead of re-running the contention fixed point and the power model.
// Serving is bit-identical to the machine's own stepFull — the signature
// covers every configuration input the full tick reads, and the serve
// path recomputes the progress-dependent remainder locally — so a memo
// never changes a trajectory, only the cost of computing it.
//
// A SteadyMemo is safe for concurrent use by machines on different
// goroutines; segments are immutable once published.
type SteadyMemo struct {
	mu      sync.RWMutex
	entries map[memoKey]*steadySegment
	max     int
	seed    maphash.Seed

	hits      atomic.Uint64
	misses    atomic.Uint64
	inserts   atomic.Uint64
	evictions atomic.Uint64
}

// NewSteadyMemo creates a memo bounded to max entries (<= 0 selects the
// default). When full, publishing a new segment evicts an arbitrary old
// one — segment popularity is flat within a fleet epoch, so anything
// smarter than O(1) displacement buys nothing on this path.
func NewSteadyMemo(max int) *SteadyMemo {
	if max <= 0 {
		max = defaultMemoEntries
	}
	return &SteadyMemo{
		entries: make(map[memoKey]*steadySegment),
		max:     max,
		seed:    maphash.MakeSeed(),
	}
}

// Hits returns how many full ticks were served from the memo.
func (sm *SteadyMemo) Hits() uint64 { return sm.hits.Load() }

// Misses returns how many signature probes found no servable segment.
func (sm *SteadyMemo) Misses() uint64 { return sm.misses.Load() }

// Inserts returns how many segments were published.
func (sm *SteadyMemo) Inserts() uint64 { return sm.inserts.Load() }

// Evictions returns how many segments were displaced by inserts.
func (sm *SteadyMemo) Evictions() uint64 { return sm.evictions.Load() }

// Len returns the number of resident segments.
func (sm *SteadyMemo) Len() int {
	sm.mu.RLock()
	defer sm.mu.RUnlock()
	return len(sm.entries)
}

// SetSteadyMemo attaches (or, with nil, detaches) a cross-session steady
// memo. Machines sharing a memo must build their specs from the chip
// catalog (the signature identifies a spec by model) and their workloads
// from the benchmark catalog (programs are identified by name).
func (m *Machine) SetSteadyMemo(sm *SteadyMemo) { m.memo = sm }

// SteadyMemo returns the attached memo, or nil.
func (m *Machine) SteadyMemo() *SteadyMemo { return m.memo }

// sigU64/sigF64/sigStr append fixed-width fields to a signature buffer.
func sigU64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

func sigF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func sigStr(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// encodeSteadySignature encodes every configuration input the next full
// tick reads into the machine's signature scratch: the spec identity,
// tick length, aging drift, programmed voltage and PMD frequencies, the
// lagged memory utilization the fixed point starts from, and per core
// the occupancy tag (empty / blocked-done / stalled / running), hosted
// program and pre-tick stall fraction. Progress counters and the
// completion-scan flag are deliberately excluded — the serve path
// rederives the clamp and replays the scan locally — and a stalled
// lane's remaining penalty is excluded too (the stalled tick's effects
// do not depend on it; the countdown reappears in later signatures).
func (m *Machine) encodeSteadySignature() bool {
	if m.sigPrefix == 0 || m.sigTick != m.Tick {
		m.sigTick = m.Tick
		buf := m.sigBuf[:0]
		buf = append(buf, memoVersion)
		buf = sigU64(buf, uint64(m.Spec.Model))
		buf = sigU64(buf, uint64(m.Spec.Cores))
		buf = sigF64(buf, m.Tick)
		buf = sigF64(buf, m.Spec.MemBandwidth)
		buf = sigU64(buf, uint64(m.Spec.NominalMV))
		buf = sigU64(buf, uint64(m.Spec.MinSafeMV))
		m.sigBuf = buf
		m.sigPrefix = len(buf)
	}
	buf := m.sigBuf[:m.sigPrefix]
	buf = sigU64(buf, uint64(m.vminDrift))
	buf = sigU64(buf, uint64(m.Chip.Voltage()))
	for p := 0; p < m.Spec.PMDs(); p++ {
		buf = sigU64(buf, uint64(m.Chip.PMDFreq(chip.PMDID(p))))
	}
	buf = sigF64(buf, m.memRho)
	for _, t := range m.coreThr {
		switch {
		case t == nil:
			buf = append(buf, 0)
		case t.Done():
			buf = append(buf, 1)
			buf = sigStr(buf, t.Proc.Bench.Name)
		case t.stalledUntilTick > m.ticks:
			// Stalled threads make no progress but still load the power
			// model (busy at their pre-stall stall fraction) and exert L2
			// sibling pressure.
			buf = append(buf, 3)
			buf = sigStr(buf, t.Proc.Bench.Name)
			buf = sigF64(buf, t.stallFrac)
		default:
			buf = append(buf, 2)
			buf = sigStr(buf, t.Proc.Bench.Name)
			buf = sigF64(buf, t.stallFrac)
		}
	}
	m.sigBuf = buf
	return true
}

// serve replays a memoized full tick on m if one exists for the
// signature just encoded into m.sigBuf, filling *sum with the signature
// hash on a miss (so the caller can publish under it).
func (sm *SteadyMemo) serve(m *Machine, sum *memoKey) bool {
	*sum = maphash.Bytes(sm.seed, m.sigBuf)
	sm.mu.RLock()
	e := sm.entries[*sum]
	sm.mu.RUnlock()
	if e == nil || !bytes.Equal(e.key, m.sigBuf) {
		sm.misses.Add(1)
		return false
	}
	m.applyMemoTick(e)
	sm.hits.Add(1)
	return true
}

// store publishes the full tick stepFull just committed: the signature
// was encoded before the tick ran, the lanes sit in m.upds (with their
// possibly-clamped increments — the unclamped value is rederived from
// the same cycles/cpi expression Phase 2 used), and, when the tick
// closed in equilibrium, the freshly rebuilt steady cache supplies the
// replay power.
func (sm *SteadyMemo) store(m *Machine, sum memoKey, watts float64, bd power.Breakdown, req chip.Millivolts, steadyRebuilt bool) {
	e := &steadySegment{
		key:    append([]byte(nil), m.sigBuf...),
		watts:  watts,
		bd:     bd,
		memRho: m.memRho,
		reqMV:  req,
		lanes:  make([]memoLane, len(m.upds)),
	}
	if steadyRebuilt {
		e.steadyValid = true
		e.steadyWatts = m.steady.watts
		e.steadyBD = m.steady.bd
	}
	for i := range m.upds {
		u := &m.upds[i]
		e.lanes[i] = memoLane{
			core:      u.core,
			fGHz:      u.fGHz,
			l2Infl:    u.l2Infl,
			cpi:       u.cpi,
			instrRaw:  u.cycles / u.cpi,
			cycles:    u.cycles,
			coreW:     u.coreW,
			dCycles:   u.dCycles,
			stallFrac: u.t.stallFrac,
		}
	}
	sm.mu.Lock()
	if old, dup := sm.entries[sum]; dup {
		if !bytes.Equal(old.key, e.key) {
			// 64-bit collision between distinct signatures: newest wins,
			// the displaced configuration just stops being memoized.
			sm.entries[sum] = e
			sm.evictions.Add(1)
			sm.inserts.Add(1)
		}
	} else {
		if len(sm.entries) >= sm.max {
			for k := range sm.entries {
				delete(sm.entries, k)
				sm.evictions.Add(1)
				break
			}
		}
		sm.entries[sum] = e
		sm.inserts.Add(1)
	}
	sm.mu.Unlock()
}

// applyMemoTick replays a memoized full tick: the exact sequence of
// effects stepFull would commit, with the fixed point, power model and
// Vmin evaluation replaced by the segment's stored results and the
// progress-dependent remainder (clamp, integer counters, completions)
// rederived locally with the same expressions. When the segment carries
// a steady cache, the machine leaves the tick replaying subsequent
// steady ticks locally without touching the memo.
func (m *Machine) applyMemoTick(e *steadySegment) {
	dt := m.Tick
	chipGen := m.Chip.Generation()
	placeGen := m.placeGen
	m.steady.valid = false

	// Phases 1+2: lanes from the segment, clamped against local progress.
	// Fields are written in place (not appended as literals) to keep the
	// replay loop free of large struct copies.
	clamped := false
	if cap(m.upds) < len(e.lanes) {
		m.upds = make([]upd, len(e.lanes))
	}
	upds := m.upds[:len(e.lanes)]
	m.upds = upds
	for i := range e.lanes {
		ln := &e.lanes[i]
		t := m.coreThr[ln.core]
		instr := ln.instrRaw
		if remaining := t.instrTotal - t.instrDone; instr > remaining {
			instr = remaining
			clamped = true
		}
		u := &upds[i]
		u.t = t
		u.bench = t.Proc.Bench
		u.core = ln.core
		u.fGHz = ln.fGHz
		u.l2Infl = ln.l2Infl
		u.cpi = ln.cpi
		u.instr = instr
		u.cycles = ln.cycles
		u.coreW = ln.coreW
		u.dCycles = ln.dCycles
		u.dInstr = uint64(instr)
		u.dL3C = uint64(instr * t.Proc.Bench.MemPerInstr * ln.l2Infl)
	}

	// Phase 3: power integration from the stored breakdown.
	m.lastWatts = e.watts
	m.Meter.Accumulate(e.watts, dt)
	m.energyBD.CoreDynamic += e.bd.CoreDynamic * dt
	m.energyBD.PMDUncore += e.bd.PMDUncore * dt
	m.energyBD.L3Fabric += e.bd.L3Fabric * dt
	m.energyBD.MemCtl += e.bd.MemCtl * dt
	m.energyBD.Leakage += e.bd.Leakage * dt

	// Phase 4: emergency check against the stored requirement (the
	// voltage is part of the signature, so the comparison replays the
	// publisher's outcome).
	voltageSafe := true
	if len(upds) > 0 {
		m.emChecks++
		if m.Chip.Voltage() < e.reqMV {
			voltageSafe = false
			m.emergencies = append(m.emergencies, Emergency{
				At: m.now, Voltage: m.Chip.Voltage(), Required: e.reqMV,
			})
			m.trimHistory()
			m.logEvent(EvEmergency, -1, "V=%v < required %v", m.Chip.Voltage(), e.reqMV)
		}
	}
	m.syncVFEvents()

	// Phase 5: commit.
	finished := false
	for i := range upds {
		u := &upds[i]
		t := u.t
		t.instrDone += u.instr
		t.lastCPI = u.cpi
		t.lastL2Infl = u.l2Infl
		t.stallFrac = e.lanes[i].stallFrac
		cc := &m.counters[t.Core]
		cc.Cycles += u.dCycles
		cc.Instructions += u.dInstr
		cc.L3CAccesses += u.dL3C
		t.Proc.coreEnergyJ += u.coreW * dt
		if t.instrDone >= t.instrTotal {
			finished = true
		}
	}
	m.memRho = e.memRho
	m.ticks++
	m.now = float64(m.ticks) * m.Tick
	if finished {
		m.finCheck = true
	}

	// Phase 6: completions, replayed locally.
	if m.finCheck {
		m.finCheck = false
		m.completeFinished()
	}

	if e.steadyValid && !clamped && !finished && voltageSafe && placeGen == m.placeGen {
		m.steady = steadyCache{
			valid:    true,
			chipGen:  chipGen,
			placeGen: placeGen,
			tick:     m.Tick,
			n:        len(upds),
			watts:    e.steadyWatts,
			bd:       e.steadyBD,
			emCheck:  len(upds) > 0,
		}
	}
	m.runHooks(1)
}
