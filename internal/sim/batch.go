package sim

import "fmt"

// BatchStats counts what the lockstep engine did, in member-ticks (one
// member advancing one tick). SharedTicks ⊆ LockstepTicks ⊆ Ticks.
type BatchStats struct {
	// Rounds is the number of lockstep rounds driven by Step.
	Rounds uint64
	// Ticks is the aggregate member-ticks committed through the batch.
	Ticks uint64
	// LockstepTicks were committed by the structure-of-arrays fold.
	LockstepTicks uint64
	// SharedTicks reused a bitwise-identical earlier member's fold
	// instead of folding their own lanes.
	SharedTicks uint64
}

// batchMember is one enrolled machine with its advance budget.
type batchMember struct {
	m         *Machine
	end       float64
	untilIdle bool
	finished  bool
}

// Batch steps a shard of machines in lockstep over a structure-of-arrays
// layout. Every round commits the same number of ticks k on every active
// member: members in steady state pack their (progress, per-tick quantum,
// work total) lanes into the batch's shared arrays and commit k ticks in
// one fold — members whose lanes are bitwise identical (forked sessions,
// what-if branches of one snapshot) share one fold, one completion-bound
// evaluation and one headroom check — while divergent members (policy
// flip, placement change, not yet converged) transparently fall back to
// their own solo stepping for the round and rejoin the lockstep commit as
// soon as they re-converge. Because a steady commit folds progress tick
// by tick, any partition of a steady stretch into commits yields
// bitwise-identical integer counters and thread progress; only
// time-integrated energies differ, within FP-summation tolerance
// (≤1e-9 relative), exactly as solo coalescing already guarantees.
//
// Admission rule: members must share the first member's chip model, core
// count and tick length. A Batch is not safe for concurrent use; hooks
// run by member machines must not mutate the Batch.
type Batch struct {
	model   int
	cores   int
	tick    float64
	seeded  bool
	members []batchMember
	stats   BatchStats

	// Reusable round scratch (all grown once, zero steady-state allocs).
	idx     []int
	isBatch []bool
	offs    []int
	reps    []int
	prog    []int
	done    []float64
	inc     []float64
}

// NewBatch creates an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Add enrolls m to advance by seconds of simulated time (and, when
// untilIdle is set, to stop at the first tick on which no process is
// running or pending, mirroring RunUntilIdle's check-then-advance
// order). It returns the member's index. Adding while a Run is in
// progress is allowed only from outside Step (not from hooks).
func (b *Batch) Add(m *Machine, seconds float64, untilIdle bool) (int, error) {
	if !b.seeded {
		b.model = int(m.Spec.Model)
		b.cores = m.Spec.Cores
		b.tick = m.Tick
		b.seeded = true
	} else if int(m.Spec.Model) != b.model || m.Spec.Cores != b.cores || m.Tick != b.tick {
		return 0, fmt.Errorf("sim: batch admission: machine (model=%d cores=%d tick=%g) does not match shard (model=%d cores=%d tick=%g)",
			m.Spec.Model, m.Spec.Cores, m.Tick, b.model, b.cores, b.tick)
	}
	b.members = append(b.members, batchMember{m: m, end: m.now + seconds, untilIdle: untilIdle})
	return len(b.members) - 1, nil
}

// Len returns the number of enrolled members (finished or not).
func (b *Batch) Len() int { return len(b.members) }

// Machine returns member i's machine.
func (b *Batch) Machine(i int) *Machine { return b.members[i].m }

// Done reports whether member i has reached its budget (or was ejected).
func (b *Batch) Done(i int) bool { return b.members[i].finished }

// Eject marks member i finished without advancing it further (used by
// drivers to drop a member whose context was cancelled). The machine is
// left at its current tick boundary, fully consistent.
func (b *Batch) Eject(i int) { b.members[i].finished = true }

// Stats returns the cumulative lockstep accounting.
func (b *Batch) Stats() BatchStats { return b.stats }

// Run steps until every member reaches its budget.
func (b *Batch) Run() {
	for b.Step() {
	}
}

// batchProbeTicks caps a round while any active member is divergent
// (not steady, mid-transient, near a completion). Divergent members
// advance through the solo fallback, which cannot be bounded by their
// unknown re-convergence horizon — so the round itself stays short
// enough that they are re-examined for lockstep admission every few
// ticks. Transients last a handful of ticks (the damped contention
// fixed point converges in ~6), so one probe round typically re-admits.
const batchProbeTicks = 16

// Step runs one lockstep round: picks the largest tick count k every
// active member can commit together, commits k ticks on each of them
// (SoA fold for steady members, solo stepping for divergent ones), and
// reports whether any member remains active.
func (b *Batch) Step() bool {
	active := b.idx[:0]
	for i := range b.members {
		mb := &b.members[i]
		if mb.finished {
			continue
		}
		m := mb.m
		if m.now >= mb.end-1e-12 || (mb.untilIdle && len(m.running) == 0 && len(m.pending) == 0) {
			mb.finished = true
			continue
		}
		active = append(active, i)
	}
	b.idx = active
	if len(active) == 0 {
		return false
	}
	b.stats.Rounds++

	// Round size: bounded by every member's own remaining budget, then by
	// the coalescing bounds (hook boundaries, completion horizon, max
	// horizon) of every member eligible for a lockstep commit. Bounds only
	// ever shrink k, so eligibility decided against the running value
	// stays valid for the final k.
	k := maxBatchTicks
	for _, i := range active {
		mb := &b.members[i]
		if kt := mb.m.ticksUntil(mb.end - 1e-12); kt < k {
			k = kt
		}
	}
	isBatch := b.isBatch[:0]
	divergent := false
	for _, i := range active {
		m := b.members[i].m
		ok := k > 1 && m.coalescing && m.cacheFresh()
		if !ok {
			divergent = true
		}
		isBatch = append(isBatch, ok)
	}
	b.isBatch = isBatch

	reps := b.packLanes(active, isBatch)

	// The lane-dependent planning — completion headroom and the
	// completion bound on k — runs once per distinct lane block and is
	// shared by every member of its class.
	for pos, i := range active {
		if reps[pos] != pos {
			continue
		}
		m := b.members[i].m
		if !m.steadyHeadroom() {
			for p := pos; p < len(active); p++ {
				if reps[p] == pos {
					reps[p] = -1
					isBatch[p] = false
					divergent = true
				}
			}
			continue
		}
		if kb := m.completionTicksBound(k); kb < k {
			k = kb
		}
	}
	if divergent && k > batchProbeTicks {
		k = batchProbeTicks
	}
	// Hook boundaries are per machine (each member carries its own
	// daemon/recorder stack) and cannot be shared across a class.
	for pos, i := range active {
		if isBatch[pos] {
			if kb := b.members[i].m.hookTicksBound(k); kb < k {
				k = kb
			}
		}
	}

	if k <= 1 {
		for _, i := range active {
			b.members[i].m.Step()
		}
		b.stats.Ticks += uint64(len(active))
		return true
	}

	b.commitLockstep(active, isBatch, reps, k)

	// Divergent members advance at least k ticks on their own solo path,
	// tick-major while mid-transient: a not-yet-steady advance commits
	// exactly one tick, so every member crossing a transient commits tick
	// t before any member starts tick t+1, and each full tick the leader
	// publishes is served to every follower straight off the memo's
	// last-segment pointer — one signature compare, no hash, no fixed
	// point. A member that re-converges mid-round drops out of the
	// tick-major cadence and coalesces with its full remaining budget as
	// the limit — exactly the advance RunFor would issue — deliberately
	// overshooting the round boundary rather than clipping the commit at
	// it. Clipping would partition the member's steady stretch
	// differently from solo stepping and shift time-integrated energies
	// by an ulp; overshooting keeps the solo fallback bit-identical to
	// RunFor, and the next round simply re-bounds k to the members still
	// behind.
	prog := b.prog[:0]
	for range active {
		prog = append(prog, 0)
	}
	b.prog = prog
	for pending := true; pending; {
		pending = false
		for pos, i := range active {
			if isBatch[pos] || prog[pos] >= k {
				continue
			}
			mb := &b.members[i]
			if mb.finished {
				continue
			}
			m := mb.m
			if m.now >= mb.end-1e-12 {
				mb.finished = true
				continue
			}
			if mb.untilIdle && len(m.running) == 0 && len(m.pending) == 0 {
				mb.finished = true
				continue
			}
			adv := m.advance(m.ticksUntil(mb.end - 1e-12))
			prog[pos] += adv
			b.stats.Ticks += uint64(adv)
			if prog[pos] < k {
				pending = true
			}
		}
	}
	return true
}

// packLanes assigns every eligible member to a dedup class — reps[pos]
// is the earliest position whose (progress, increment, total) lanes are
// bitwise identical to pos's (pos itself if unique, -1 if ineligible) —
// and copies only the class representatives' lanes into the batch's
// shared arrays, as 8-aligned blocks so the fold's register blocks never
// straddle members. Duplicate members never get packed: their offs entry
// aliases the representative's block, which the writeback reads.
func (b *Batch) packLanes(active []int, isBatch []bool) []int {
	reps := b.reps[:0]
	offs := b.offs[:0]
	total := 0
	for pos, i := range active {
		if !isBatch[pos] {
			reps = append(reps, -1)
			offs = append(offs, -1)
			continue
		}
		m := b.members[i].m
		n := m.steady.n
		rep := pos
		for prev := 0; prev < pos; prev++ {
			if reps[prev] != prev {
				continue
			}
			pm := b.members[active[prev]].m
			if pm.steady.n != n {
				continue
			}
			if lanesMatch(m.upds[:n], pm.upds[:n]) {
				rep = prev
				break
			}
		}
		reps = append(reps, rep)
		if rep == pos {
			offs = append(offs, total)
			total += (n + 7) &^ 7
		} else {
			offs = append(offs, offs[rep])
		}
	}
	b.reps, b.offs = reps, offs

	if cap(b.done) < total {
		b.done = make([]float64, total)
		b.inc = make([]float64, total)
	}
	done, inc := b.done[:total], b.inc[:total]
	for pos, i := range active {
		if reps[pos] != pos {
			continue
		}
		m := b.members[i].m
		n := m.steady.n
		o := offs[pos]
		for j := 0; j < n; j++ {
			u := &m.upds[j]
			done[o+j] = u.t.instrDone
			inc[o+j] = u.instr
		}
		for j := o + n; j < o+((n+7)&^7); j++ {
			done[j], inc[j] = 0, 0
		}
	}
	return reps
}

// lanesMatch reports whether two members' steady lanes are bitwise
// interchangeable for a lockstep commit: same progress, same per-tick
// increment, same work total (the total feeds the shared headroom and
// completion-horizon checks). The values are finite by construction, so
// float equality is exact.
func lanesMatch(a, b []upd) bool {
	for j := range a {
		ua, ub := &a[j], &b[j]
		if ua.t.instrDone != ub.t.instrDone || ua.instr != ub.instr || ua.t.instrTotal != ub.t.instrTotal {
			return false
		}
	}
	return true
}

// commitLockstep commits k steady ticks on every eligible member through
// the shared structure-of-arrays fold: one fold per class, written back
// to every class member — the identical-shard fast path that converges a
// steady stretch once and commits it k ticks × M sessions everywhere.
func (b *Batch) commitLockstep(active []int, isBatch []bool, reps []int, k int) {
	offs := b.offs
	done := b.done

	for pos, i := range active {
		if !isBatch[pos] || reps[pos] != pos {
			continue
		}
		n := b.members[i].m.steady.n
		padded := (n + 7) &^ 7
		foldLanes(done[offs[pos]:offs[pos]+padded], b.inc[offs[pos]:offs[pos]+padded], k)
	}

	ku := uint64(k)
	for pos, i := range active {
		if !isBatch[pos] {
			continue
		}
		m := b.members[i].m
		n := m.steady.n
		src := offs[reps[pos]]
		for j := 0; j < n; j++ {
			m.upds[j].t.instrDone = done[src+j]
		}
		m.commitSteadyScalars(k)
		m.coalesced += ku - 1
		b.stats.Ticks += ku
		b.stats.LockstepTicks += ku
		if reps[pos] != pos {
			b.stats.SharedTicks += ku
		}
	}
}
