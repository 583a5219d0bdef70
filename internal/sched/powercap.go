package sched

import (
	"fmt"
	"math"

	"avfs/internal/chip"
	"avfs/internal/sim"
)

// PowerCap is a RAPL-style power-capping governor (the paper's Sec. I
// motivation: capping peak power through power-performance knobs such as
// DVFS). It samples the chip's power and walks every busy PMD's frequency
// down one CPPC step while the budget is exceeded, back up while there is
// headroom — trading performance for a power ceiling, with voltage left
// untouched (the knob the X-Gene firmware exposes).
//
// It composes with the default placer (cap + placement ≈ a capped
// Baseline) and serves as the comparison substrate for studies of capping
// versus the paper's efficiency-first daemon.
type PowerCap struct {
	M *sim.Machine
	// BudgetW is the power ceiling in watts.
	BudgetW float64
	// SamplePeriod is the controller's evaluation interval in seconds.
	SamplePeriod float64
	// Headroom is the fraction of the budget below which the governor
	// raises frequency again (hysteresis; default 0.92).
	Headroom float64

	nextSample float64
	throttles  int
	boosts     int
	disabled   bool
	// composed is set by AttachGovernor: another policy stack owns
	// frequency, so boosts may only undo this governor's own throttles.
	composed bool
	// restore tracks, per PMD the governor throttled in composed mode,
	// the frequency to restore to (Want) and the last value this
	// governor wrote (Set). A Set that no longer matches the chip means
	// the owning policy rewrote the PMD; the claim is dropped.
	restore map[chip.PMDID]RestoreTarget
}

// RestoreTarget is one composed-mode throttle claim (serialized with
// PowerCapState so a migrated session boosts back identically).
type RestoreTarget struct {
	WantMHz chip.MHz `json:"want_mhz"`
	SetMHz  chip.MHz `json:"set_mhz"`
}

// maxCapSamplePeriod is the longest control-loop period a restored power
// cap accepts, in seconds: a RAPL-like loop samples in milliseconds.
const maxCapSamplePeriod = 1.0

// NewPowerCap creates the governor with RAPL-like defaults (10 ms control
// loop).
func NewPowerCap(m *sim.Machine, budgetW float64) *PowerCap {
	if budgetW <= 0 {
		panic("sched: power budget must be positive")
	}
	return &PowerCap{M: m, BudgetW: budgetW, SamplePeriod: 0.01, Headroom: 0.92}
}

// Attach hooks the governor (and the default placer) onto the machine.
// The tick boundary is the governor's next sample instant (immediate while
// the FIFO head fits the free cores), so steady spans between
// control-loop evaluations can be coalesced.
func (g *PowerCap) Attach() {
	placer := &DefaultPlacer{M: g.M}
	g.M.OnTickBounded(func(*sim.Machine, int) {
		placer.PlacePending()
		if !g.disabled {
			g.Tick()
		}
	}, func() float64 {
		if headFits(g.M) {
			return 0
		}
		if g.disabled {
			return math.Inf(1)
		}
		return g.nextSample
	})
}

// AttachGovernor hooks only the capping control loop onto the machine —
// no placer — so the cap composes with an already-attached policy stack
// (the daemon or Baseline owns placement). While disabled the hook is
// inert and reports no tick boundary, so steady-state coalescing is
// unaffected; the fleet uses this to retune or lift a session's cap
// without rebuilding the session.
func (g *PowerCap) AttachGovernor() {
	g.composed = true
	if g.restore == nil {
		g.restore = map[chip.PMDID]RestoreTarget{}
	}
	g.M.OnTickBounded(func(*sim.Machine, int) {
		if !g.disabled {
			g.Tick()
		}
	}, func() float64 {
		if g.disabled {
			return math.Inf(1)
		}
		return g.nextSample
	})
}

// SetEnabled turns the control loop on or off without detaching its
// hook (machines have no hook removal; a disabled governor is inert).
func (g *PowerCap) SetEnabled(on bool) { g.disabled = !on }

// Enabled reports whether the control loop is live.
func (g *PowerCap) Enabled() bool { return !g.disabled }

// SetBudget retunes the ceiling; non-positive budgets are ignored (use
// SetEnabled(false) to lift the cap).
func (g *PowerCap) SetBudget(w float64) {
	if w > 0 {
		g.BudgetW = w
	}
}

// PowerCapState is the serializable controller state, captured alongside
// the machine so a snapshot of a capped session replays bit-identically
// (the governor's sample phase and hysteresis counters survive the
// move).
type PowerCapState struct {
	BudgetW      float64 `json:"budget_watts"`
	SamplePeriod float64 `json:"sample_period"`
	Headroom     float64 `json:"headroom"`
	NextSample   float64 `json:"next_sample"`
	Throttles    int     `json:"throttles"`
	Boosts       int     `json:"boosts"`
	Disabled     bool    `json:"disabled,omitempty"`
	// Restore carries the composed-mode throttle claims (JSON object
	// keys sort, so the snapshot bytes stay content-addressable).
	Restore map[chip.PMDID]RestoreTarget `json:"restore,omitempty"`
}

// CaptureState snapshots the controller.
func (g *PowerCap) CaptureState() PowerCapState {
	return PowerCapState{
		BudgetW:      g.BudgetW,
		SamplePeriod: g.SamplePeriod,
		Headroom:     g.Headroom,
		NextSample:   g.nextSample,
		Throttles:    g.throttles,
		Boosts:       g.boosts,
		Disabled:     g.disabled,
		Restore:      cloneRestore(g.restore),
	}
}

func cloneRestore(in map[chip.PMDID]RestoreTarget) map[chip.PMDID]RestoreTarget {
	if len(in) == 0 {
		return nil
	}
	out := make(map[chip.PMDID]RestoreTarget, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// RestorePowerCap rebuilds a governor from captured state on a restored
// machine. The caller still chooses how to hook it (Attach or
// AttachGovernor), mirroring how it was attached originally. A sample
// instant serial stepping cannot produce is rejected: one far in the
// future would freeze the control loop. So is a sample period that is
// not finite or longer than maxCapSamplePeriod (the cap would stall
// after its next sample; a non-positive one keeps the default), and a
// headroom outside (0, 1], which has no hysteresis band.
func RestorePowerCap(m *sim.Machine, st PowerCapState) (*PowerCap, error) {
	g := NewPowerCap(m, math.Max(st.BudgetW, 1e-9))
	if math.IsNaN(st.SamplePeriod) || math.IsInf(st.SamplePeriod, 0) || st.SamplePeriod > maxCapSamplePeriod {
		return nil, fmt.Errorf("sched: power cap sample period %v is not a finite period of at most %vs",
			st.SamplePeriod, maxCapSamplePeriod)
	}
	if st.SamplePeriod > 0 {
		g.SamplePeriod = st.SamplePeriod
	}
	if !(st.Headroom > 0 && st.Headroom <= 1) {
		return nil, fmt.Errorf("sched: power cap headroom %v outside (0, 1]", st.Headroom)
	}
	g.Headroom = st.Headroom
	if err := checkNextSample(st.NextSample, m.Now(), g.SamplePeriod); err != nil {
		return nil, err
	}
	g.nextSample = st.NextSample
	g.throttles = st.Throttles
	g.boosts = st.Boosts
	g.disabled = st.Disabled
	g.restore = cloneRestore(st.Restore)
	return g, nil
}

// Throttles returns how many down-steps the controller issued.
func (g *PowerCap) Throttles() int { return g.throttles }

// Boosts returns how many up-steps the controller issued.
func (g *PowerCap) Boosts() int { return g.boosts }

// Tick runs one control-loop evaluation if the sample period elapsed.
func (g *PowerCap) Tick() {
	now := g.M.Now()
	if now+1e-12 < g.nextSample {
		return
	}
	g.nextSample = now + g.SamplePeriod
	p := g.M.LastPower()
	switch {
	case p > g.BudgetW:
		g.step(-1)
		g.throttles++
	case p < g.BudgetW*g.Headroom:
		if g.step(+1) {
			g.boosts++
		}
	}
}

// step moves every busy PMD one CPPC frequency step in the given
// direction; it reports whether any PMD actually changed.
//
// In composed mode (AttachGovernor) the boost direction only undoes
// this governor's own throttles — a PMD it never lowered, or one the
// owning policy rewrote since (Set no longer matches the chip), is
// left alone, so the governor never outruns the frequency or the
// voltage the policy stack settled to. Boosts are additionally
// voltage-guarded: a step that would push required safe Vmin above the
// programmed voltage is reverted and retried on a later evaluation
// (the policy may raise voltage first). Standalone mode (Attach) keeps
// the original free boost-to-headroom behavior; at nominal voltage the
// manufacturer guardband makes the voltage guard always pass there.
func (g *PowerCap) step(dir int) bool {
	spec := g.M.Spec
	changed := false
	for pmd := 0; pmd < spec.PMDs(); pmd++ {
		id := chip.PMDID(pmd)
		c0, c1 := spec.CoresOf(id)
		if g.M.ThreadOn(c0) == nil && g.M.ThreadOn(c1) == nil {
			continue
		}
		cur := g.M.Chip.PMDFreq(id)
		tr, claimed := g.restore[id]
		if claimed && tr.SetMHz != cur {
			// The owning policy rewrote this PMD; it owns it again.
			delete(g.restore, id)
			claimed = false
		}
		next := spec.ClampFreq(cur + chip.MHz(dir)*spec.FreqStep)
		if dir > 0 && g.composed {
			if !claimed {
				continue
			}
			if next > tr.WantMHz {
				next = tr.WantMHz
			}
		}
		if next == cur {
			if dir > 0 && claimed {
				delete(g.restore, id)
			}
			continue
		}
		g.M.Chip.SetPMDFreq(id, next)
		if dir > 0 && g.M.RequiredSafeVmin() > g.M.Chip.Voltage() {
			g.M.Chip.SetPMDFreq(id, cur)
			continue
		}
		if g.composed {
			switch {
			case dir < 0 && claimed:
				g.restore[id] = RestoreTarget{WantMHz: tr.WantMHz, SetMHz: next}
			case dir < 0:
				g.restore[id] = RestoreTarget{WantMHz: cur, SetMHz: next}
			case next == tr.WantMHz:
				delete(g.restore, id)
			default:
				g.restore[id] = RestoreTarget{WantMHz: tr.WantMHz, SetMHz: next}
			}
		}
		changed = true
	}
	return changed
}

// String describes the governor.
func (g *PowerCap) String() string {
	return fmt.Sprintf("powercap(%.1fW, %.0fms loop)", g.BudgetW, 1000*g.SamplePeriod)
}
