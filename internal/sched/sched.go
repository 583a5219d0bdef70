// Package sched provides the baseline scheduling substrate the paper
// compares against: the default Linux placement behaviour (load-balanced
// spreading of new tasks across idle cores, preferring idle PMDs) and the
// ondemand cpufreq governor, both at nominal voltage.
//
// The "Baseline" configuration of Tables III/IV is exactly this package
// driving a machine; the paper's daemon (internal/daemon) replaces it.
package sched

import (
	"math"
	"sort"

	"avfs/internal/chip"
	"avfs/internal/sim"
)

// DefaultPlacer approximates the Linux CFS load balancer's initial
// placement: a new thread goes to the idlest core, which in practice means
// spreading across PMDs before doubling them up.
type DefaultPlacer struct {
	M *sim.Machine
}

// pickCores selects n free cores, preferring cores whose PMD sibling is
// idle (spread), then filling remaining capacity; it returns nil if fewer
// than n cores are free.
func (p *DefaultPlacer) pickCores(n int) []chip.CoreID {
	free := p.M.FreeCores()
	if len(free) < n {
		return nil
	}
	// Rank free cores: cores on fully idle PMDs first, then by ID for
	// determinism.
	idlePMD := func(c chip.CoreID) bool {
		return p.M.ThreadOn(c^1) == nil
	}
	sort.SliceStable(free, func(i, j int) bool {
		ii, jj := idlePMD(free[i]), idlePMD(free[j])
		if ii != jj {
			return ii
		}
		return free[i] < free[j]
	})
	// Picking spread cores one at a time changes sibling idleness;
	// emulate the balancer's sequential decisions.
	var out []chip.CoreID
	taken := map[chip.CoreID]bool{}
	for len(out) < n {
		best := chip.CoreID(-1)
		bestIdle := false
		for _, c := range free {
			if taken[c] {
				continue
			}
			sibIdle := p.M.ThreadOn(c^1) == nil && !taken[c^1]
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
}

// NewOndemand creates the governor with Linux-like defaults.
func NewOndemand(m *sim.Machine) *Ondemand {
	return &Ondemand{M: m, SamplePeriod: 0.1, StepDownFactor: 0.25}
}

// NextSample returns the simulation time of the next governor evaluation
// — the tick boundary a coalescing simulator must not batch past.
func (g *Ondemand) NextSample() float64 { return g.nextSample }

// Tick runs one governor evaluation if the sample period elapsed.
func (g *Ondemand) Tick() {
	now := g.M.Now()
	if now+1e-12 < g.nextSample {
		return
	}
	g.nextSample = now + g.SamplePeriod
	spec := g.M.Spec
	for p := 0; p < spec.PMDs(); p++ {
		pmd := chip.PMDID(p)
		c0, c1 := spec.CoresOf(pmd)
		busy := g.M.ThreadOn(c0) != nil || g.M.ThreadOn(c1) != nil
		cur := g.M.Chip.PMDFreq(pmd)
		if busy {
			// Above the up-threshold: jump straight to max.
			if cur != spec.MaxFreq {
				g.M.Chip.SetPMDFreq(pmd, spec.MaxFreq)
			}
			continue
		}
		// Idle: decay toward the minimum frequency.
		down := chip.MHz(float64(spec.MaxFreq) * g.StepDownFactor)
		g.M.Chip.SetPMDFreq(pmd, cur-down)
	}
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
	m.OnTickBounded(func(*sim.Machine, int) {
		if b.disabled {
			return
		}
		b.Placer.PlacePending()
		b.Governor.Tick()
	}, func() float64 {
		// A suspended stack imposes no tick boundary; a FIFO head that
		// fits is placed on the next tick; otherwise the stack next acts
		// at the governor's sample instant.
		if b.disabled {
			return math.Inf(1)
		}
		if headFits(m) {
			return 0
		}
		return b.Governor.NextSample()
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
// stack must already be attached to the restored machine.
func (b *Baseline) RestoreState(st BaselineState) {
	b.disabled = st.Disabled
	b.Governor.nextSample = st.NextSample
}
