// Package sched provides the baseline scheduling substrate the paper
// compares against: the default Linux placement behaviour (load-balanced
// spreading of new tasks across idle cores, preferring idle PMDs) and the
// ondemand cpufreq governor, both at nominal voltage.
//
// The "Baseline" configuration of Tables III/IV is exactly this package
// driving a machine; the paper's daemon (internal/daemon) replaces it.
package sched

import (
	"fmt"
	"math"

	"avfs/internal/chip"
	"avfs/internal/sim"
)

// DefaultPlacer approximates the Linux CFS load balancer's initial
// placement: a new thread goes to the idlest core, which in practice means
// spreading across PMDs before doubling them up.
type DefaultPlacer struct {
	M *sim.Machine

	// ranked, taken and picked are pickCores' scratch, reused across
	// placements.
	ranked []chip.CoreID
	taken  []bool
	picked []chip.CoreID
}

// pickCores selects n free cores, preferring cores whose PMD sibling is
// idle (spread), then filling remaining capacity; it returns nil if fewer
// than n cores are free. The returned slice is the placer's scratch,
// valid until the next call.
func (p *DefaultPlacer) pickCores(n int) []chip.CoreID {
	m := p.M
	if m.FreeCoreCount() < n {
		return nil
	}
	// Rank free cores: cores on fully idle PMDs first, then the others,
	// each in ascending order.
	ranked := p.ranked[:0]
	for _, sibIdle := range [...]bool{true, false} {
		for c := range m.Spec.Cores {
			id := chip.CoreID(c)
			if m.ThreadOn(id) == nil && (m.ThreadOn(id^1) == nil) == sibIdle {
				ranked = append(ranked, id)
			}
		}
	}
	p.ranked = ranked
	if len(p.taken) < m.Spec.Cores {
		p.taken = make([]bool, m.Spec.Cores)
	}
	taken := p.taken
	defer clear(taken)
	// Picking spread cores one at a time changes sibling idleness;
	// emulate the balancer's sequential decisions.
	out := p.picked[:0]
	for len(out) < n {
		best := chip.CoreID(-1)
		bestIdle := false
		for _, c := range ranked {
			if taken[c] {
				continue
			}
			sibIdle := m.ThreadOn(c^1) == nil && !taken[c^1]
			if best < 0 || (sibIdle && !bestIdle) {
				best, bestIdle = c, sibIdle
				if sibIdle {
					break
				}
			}
		}
		if best < 0 {
			return nil
		}
		taken[best] = true
		out = append(out, best)
	}
	p.picked = out
	return out
}

// PlacePending places as many pending processes as free cores allow, in
// FIFO order; a process that does not fit blocks the queue (FIFO fairness,
// mirroring a batch spooler feeding a fully loaded server).
func (p *DefaultPlacer) PlacePending() {
	for headFits(p.M) {
		proc := p.M.PendingHead()
		if err := p.M.Place(proc, p.pickCores(len(proc.Threads))); err != nil {
			panic(err) // the head fits, so pickCores found free cores
		}
	}
}

// Attach hooks the placer to the machine so pending processes are placed
// on every tick (completions free cores, so the tick that completes a
// process drains the queue behind it). The hook is batch-aware: unless
// the FIFO head fits the free cores the placer never needs a tick-exact
// step — a head that does not fit waits for a completion, and the tick
// of a completion is always stepped exactly — so arrival-free stretches
// coalesce freely even with a blocked queue.
func (p *DefaultPlacer) Attach() {
	p.M.OnTickBounded(func(*sim.Machine, int) { p.PlacePending() }, p.nextBoundary)
}

// nextBoundary forces a tick-exact step only while the FIFO head fits.
func (p *DefaultPlacer) nextBoundary() float64 {
	if headFits(p.M) {
		return 0
	}
	return math.Inf(1)
}

// headFits reports whether the pending FIFO's head fits the free cores:
// exactly when PlacePending would place something.
func headFits(m *sim.Machine) bool {
	h := m.PendingHead()
	return h != nil && len(h.Threads) <= m.FreeCoreCount()
}

// Ondemand is the Linux ondemand cpufreq governor operating per policy
// (one policy per PMD on X-Gene): it samples utilization periodically and
// jumps to the maximum frequency when a PMD is busy, stepping down toward
// the minimum when it idles. Voltage is untouched (the X-Gene firmware
// keeps V nominal at every frequency — the paper's motivating observation).
type Ondemand struct {
	M *sim.Machine
	// SamplePeriod is the governor's evaluation interval in seconds
	// (Linux default is tens of milliseconds; 0.1 s here).
	SamplePeriod float64
	// StepDownFactor is how far the frequency falls per idle sample,
	// as a fraction of max frequency.
	StepDownFactor float64

	nextSample float64

	// quiet memoizes Quiet on the placement and chip generations and the
	// step it was evaluated with.
	quiet quietMemo
}

// quietMemo is one memoized Quiet verdict and the inputs it holds for.
type quietMemo struct {
	valid             bool
	placeGen, chipGen uint64
	down              chip.MHz
	quiet             bool
}

// NewOndemand creates the governor with Linux-like defaults.
func NewOndemand(m *sim.Machine) *Ondemand {
	return &Ondemand{M: m, SamplePeriod: 0.1, StepDownFactor: 0.25}
}

// NextSample returns the simulation time of the next governor evaluation.
func (g *Ondemand) NextSample() float64 { return g.nextSample }

// Tick runs one governor evaluation if the sample period elapsed.
func (g *Ondemand) Tick() {
	now := g.M.Now()
	if now+1e-12 < g.nextSample {
		return
	}
	g.nextSample = now + g.SamplePeriod
	g.sample(true)
}

// sample is one evaluation of every PMD's policy: a busy PMD is above the
// up-threshold and jumps straight to the maximum frequency, an idle one
// decays one step toward the minimum. With apply false it changes
// nothing; either way it reports whether any PMD's frequency would move.
func (g *Ondemand) sample(apply bool) (moved bool) {
	spec := g.M.Spec
	down := g.step()
	for p := 0; p < spec.PMDs(); p++ {
		pmd := chip.PMDID(p)
		c0, c1 := spec.CoresOf(pmd)
		cur := g.M.Chip.PMDFreq(pmd)
		want := spec.MaxFreq
		if g.M.ThreadOn(c0) == nil && g.M.ThreadOn(c1) == nil {
			want = spec.ClampFreq(cur - down)
		}
		if want == cur {
			continue
		}
		if !apply {
			return true
		}
		g.M.Chip.SetPMDFreq(pmd, want)
		moved = true
	}
	return moved
}

// step is the frequency an idle PMD loses per sample.
func (g *Ondemand) step() chip.MHz {
	return chip.MHz(float64(g.M.Spec.MaxFreq) * g.StepDownFactor)
}

// Quiet reports whether a sample taken now would change nothing: every
// busy PMD already runs at the maximum frequency and every idle PMD sits
// where its decay step clamps to. It is a pure function of the placement
// and the chip's PMD frequencies, memoized on their generations.
func (g *Ondemand) Quiet() bool {
	q := &g.quiet
	pg, cg, down := g.M.PlacementGeneration(), g.M.Chip.Generation(), g.step()
	if !q.valid || q.placeGen != pg || q.chipGen != cg || q.down != down {
		*q = quietMemo{valid: true, placeGen: pg, chipGen: cg, down: down, quiet: !g.sample(false)}
	}
	return q.quiet
}

// nextBoundary is the tick boundary a coalescing simulator must not batch
// past: the next sample instant, or none while the governor is quiet —
// its samples are then no-ops, so a batch may cross them and tickBatch
// replays their timing.
func (g *Ondemand) nextBoundary() float64 {
	if g.Quiet() {
		return math.Inf(1)
	}
	return g.nextSample
}

// tickBatch is the governor's end-of-commit step for a commit of k ticks.
// It replays the serial sample rule over the commit's first k-1 ticks —
// a batch crosses a sample instant only while the governor is quiet, so
// those samples move nothing but the sample phase — and then evaluates
// the last tick through Tick, exactly as serial stepping would; k = 1 is
// Tick. The replay is bounded by k, whatever the sample phase.
func (g *Ondemand) tickBatch(k int) {
	dt := g.M.Tick
	end := g.M.Ticks()
	for c := end - uint64(k-1); c < end; c++ {
		// The conversion keeps the product from fusing with the adds
		// on architectures with fused multiply-add.
		if now := float64(float64(c) * dt); now+1e-12 >= g.nextSample {
			g.nextSample = now + g.SamplePeriod
		}
	}
	g.Tick()
}

// Baseline bundles the default placer and the ondemand governor — the
// complete "Baseline" system configuration of the paper's evaluation.
type Baseline struct {
	Placer   *DefaultPlacer
	Governor *Ondemand

	// disabled suspends the stack without detaching its hooks; the fleet
	// service flips it when switching a live session's policy between the
	// baseline stack and the paper's daemon.
	disabled bool
}

// NewBaseline wires the default stack onto a machine (voltage stays at
// whatever the chip is programmed to — nominal unless the experiment
// changes it, as the "Safe Vmin" configuration does).
func NewBaseline(m *sim.Machine) *Baseline {
	b := &Baseline{
		Placer:   &DefaultPlacer{M: m},
		Governor: NewOndemand(m),
	}
	m.OnTickBounded(func(_ *sim.Machine, k int) {
		if b.disabled {
			return
		}
		b.Placer.PlacePending()
		b.Governor.tickBatch(k)
	}, func() float64 {
		// A suspended stack imposes no tick boundary; a FIFO head that
		// fits is placed on the next tick; otherwise the stack next acts
		// at the governor's next sample that can move a frequency.
		if b.disabled {
			return math.Inf(1)
		}
		if headFits(m) {
			return 0
		}
		return b.Governor.nextBoundary()
	})
	return b
}

// SetEnabled suspends or resumes the placer and governor. The stack starts
// enabled; suspended, its hooks are inert and never constrain the
// simulator's tick coalescing.
func (b *Baseline) SetEnabled(on bool) { b.disabled = !on }

// BaselineState is the serializable controller state of a Baseline stack,
// captured by the fleet's session snapshots.
type BaselineState struct {
	Disabled   bool    `json:"disabled"`
	NextSample float64 `json:"next_sample"`
}

// CaptureState snapshots the stack's mutable state.
func (b *Baseline) CaptureState() BaselineState {
	return BaselineState{Disabled: b.disabled, NextSample: b.Governor.nextSample}
}

// RestoreState overwrites the stack's mutable state from a snapshot. The
// stack must already be attached to the restored machine. A sample
// instant serial stepping cannot produce is rejected: one far in the
// future would silence the governor for the rest of the session.
func (b *Baseline) RestoreState(st BaselineState) error {
	g := b.Governor
	if err := checkNextSample(st.NextSample, g.M.Now(), g.SamplePeriod); err != nil {
		return err
	}
	b.disabled = st.Disabled
	g.nextSample = st.NextSample
	return nil
}

// checkNextSample accepts a restored sample instant only within
// [0, now+period], the range serial stepping produces: the instant is
// either the initial 0 or set to an evaluation's time plus the period.
func checkNextSample(next, now, period float64) error {
	if !(next >= 0 && next <= now+period) {
		return fmt.Errorf("sched: next sample %v outside [0, %v]", next, now+period)
	}
	return nil
}
