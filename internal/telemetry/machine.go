package telemetry

import (
	"strconv"

	"avfs/internal/chip"
	"avfs/internal/clock"
	"avfs/internal/droop"
	"avfs/internal/sim"
	"avfs/internal/vmin"
)

// Metric names of the machine-level instrumentation. Shared by the sysfs
// bridge, the avfsd status command and the tests so they can never drift.
const (
	MetricVoltageMV      = "avfs_voltage_millivolts"
	MetricRequiredVminMV = "avfs_required_vmin_millivolts"
	MetricGuardMarginMV  = "avfs_guard_margin_millivolts"
	MetricBusyCores      = "avfs_busy_cores"
	MetricUtilizedPMDs   = "avfs_utilized_pmds"
	MetricDroopClass     = "avfs_droop_class"
	MetricPowerWatts     = "avfs_power_watts"
	MetricEnergyJoules   = "avfs_energy_joules_total"
	MetricMemUtil        = "avfs_mem_utilization"
	MetricSimSeconds     = "avfs_sim_seconds"
	MetricTemperatureC   = "avfs_die_temperature_celsius"
	MetricEmergencies    = "avfs_voltage_emergencies_total"
	MetricEmergChecks    = "avfs_emergency_checks_total"
	MetricMachineEvents  = "avfs_machine_events_total"
	MetricPMDFreqMHz     = "avfs_pmd_frequency_mhz"
	MetricVminEnvelope   = "avfs_vmin_envelope_millivolts"

	// Steady-state tick-coalescing observables (see docs/PERFORMANCE.md).
	MetricSimTicks          = "avfs_sim_ticks_total"
	MetricSimTicksCoalesced = "avfs_sim_ticks_coalesced_total"
	MetricSimSteadyRatio    = "avfs_sim_steady_ratio"
	MetricSimCoalesceMiss   = "avfs_sim_coalesce_miss_total"
)

// WireMachine instruments a simulated machine: registers its electrical
// and scheduling state as gauges, counts machine events per kind, and
// forwards every event of the machine's log onto the tracer bus as
// DecMachineEvent records. Either reg or tr may be nil.
func WireMachine(m *sim.Machine, reg *Registry, tr *Tracer) {
	var evCounters [sim.EvEmergency + 1]*Counter
	if reg != nil {
		spec := m.Spec
		reg.Gauge(MetricVoltageMV, "Programmed PCP supply voltage.",
			func() float64 { return float64(m.Chip.Voltage()) })
		reg.Gauge(MetricRequiredVminMV, "True safe Vmin of the instantaneous configuration.",
			func() float64 { return float64(m.RequiredSafeVmin()) })
		reg.Gauge(MetricGuardMarginMV, "Programmed voltage minus the true safe Vmin.",
			func() float64 { return float64(m.Chip.Voltage() - m.RequiredSafeVmin()) })
		reg.Gauge(MetricBusyCores, "Cores currently hosting threads.",
			func() float64 { return float64(spec.Cores - m.FreeCoreCount()) })
		reg.Gauge(MetricUtilizedPMDs, "PMDs with at least one busy core.",
			func() float64 { return float64(m.UtilizedPMDCount()) })
		reg.Gauge(MetricDroopClass, "Table II droop magnitude class (0-3).",
			func() float64 { return float64(droop.ClassOfPMDs(spec, m.UtilizedPMDCount())) })
		reg.Gauge(MetricPowerWatts, "Instantaneous power of the last tick.",
			m.LastPower)
		reg.Gauge(MetricEnergyJoules, "Accumulated energy.",
			func() float64 { return m.Meter.Energy() })
		reg.Gauge(MetricMemUtil, "Memory-path utilization of the last tick.",
			m.MemUtilization)
		reg.Gauge(MetricSimSeconds, "Simulation time.", m.Now)
		reg.CounterFunc(MetricEmergencies, "Instants with programmed voltage below the requirement.",
			func() float64 { return float64(m.EmergencyCount()) })
		reg.CounterFunc(MetricEmergChecks, "Voltage-emergency evaluations performed.",
			func() float64 { return float64(m.EmergencyChecks()) })
		reg.CounterFunc(MetricSimTicks, "Simulator ticks committed.",
			func() float64 { return float64(m.Ticks()) })
		reg.CounterFunc(MetricSimTicksCoalesced, "Ticks replayed from the steady-state cache in multi-tick batches.",
			func() float64 { return float64(m.CoalescedTicks()) })
		reg.Gauge(MetricSimSteadyRatio, "Fraction of committed ticks that were coalesced.",
			func() float64 {
				if t := m.Ticks(); t > 0 {
					return float64(m.CoalescedTicks()) / float64(t)
				}
				return 0
			})
		for r := sim.MissReason(0); r < sim.NumMissReasons; r++ {
			reg.CounterFunc(MetricSimCoalesceMiss, "Full ticks the steady-state cache could not replay, by reason.",
				func() float64 { return float64(m.CoalesceMisses()[r]) },
				Label{"reason", r.String()})
		}
		for p := 0; p < spec.PMDs(); p++ {
			pmd := chip.PMDID(p)
			reg.Gauge(MetricPMDFreqMHz, "Programmed PMD clock frequency.",
				func() float64 { return float64(m.Chip.PMDFreq(pmd)) },
				Label{"pmd", strconv.Itoa(p)})
		}
		// The static Table II envelope (what the daemon programs), so an
		// exported scrape carries the policy table alongside the live
		// state it explains.
		for _, fc := range clock.Classes(spec) {
			for dc := 0; dc < droop.NumClasses; dc++ {
				env := envelopeOfClass(spec, fc, dc)
				reg.Gauge(MetricVminEnvelope, "Safe-Vmin class envelope (Table II).",
					func() float64 { return float64(env) },
					Label{"freq_class", fc.String()},
					Label{"droop_class", strconv.Itoa(dc)})
			}
		}
		for k := sim.EvSubmit; k <= sim.EvEmergency; k++ {
			evCounters[k] = reg.Counter(MetricMachineEvents,
				"Machine events by kind.", Label{"kind", k.String()})
		}
	}
	if reg == nil && tr == nil {
		return
	}
	m.Subscribe(func(e sim.Event) {
		if reg != nil && int(e.Kind) < len(evCounters) && evCounters[e.Kind] != nil {
			evCounters[e.Kind].Inc()
		}
		if tr != nil && tr.Active() {
			tr.Emit(MachineRecord(e))
		}
	})
}

// envelopeOfClass evaluates the Table II envelope for a droop class by
// picking a representative utilized-PMD count inside the class.
func envelopeOfClass(spec *chip.Spec, fc clock.FreqClass, droopClass int) chip.Millivolts {
	utilized := [droop.NumClasses]int{1, 3, 5, 9}[droopClass]
	if utilized > spec.PMDs() {
		utilized = spec.PMDs()
	}
	return vmin.ClassEnvelope(spec, fc, utilized)
}
