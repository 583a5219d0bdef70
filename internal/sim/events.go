package sim

import (
	"fmt"

	"avfs/internal/chip"
	"avfs/internal/ringbuf"
)

// EventKind classifies a machine event.
type EventKind int

const (
	// EvSubmit: a process was submitted.
	EvSubmit EventKind = iota
	// EvPlace: a pending process was placed on cores.
	EvPlace
	// EvMigrate: a running process moved to new cores.
	EvMigrate
	// EvFinish: a process completed.
	EvFinish
	// EvVoltage: the PCP voltage changed.
	EvVoltage
	// EvFreq: a PMD frequency changed.
	EvFreq
	// EvEmergency: the programmed voltage fell below the requirement.
	EvEmergency
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EvSubmit:
		return "submit"
	case EvPlace:
		return "place"
	case EvMigrate:
		return "migrate"
	case EvFinish:
		return "finish"
	case EvVoltage:
		return "voltage"
	case EvFreq:
		return "freq"
	case EvEmergency:
		return "emergency"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one entry of the machine's event log.
type Event struct {
	At   float64
	Kind EventKind
	// Proc is the process ID for lifecycle events, -1 otherwise.
	Proc int
	// Detail is a human-readable summary.
	Detail string
}

// String renders the event as a log line.
func (e Event) String() string {
	if e.Proc >= 0 {
		return fmt.Sprintf("%9.3fs %-9s proc=%d %s", e.At, e.Kind, e.Proc, e.Detail)
	}
	return fmt.Sprintf("%9.3fs %-9s %s", e.At, e.Kind, e.Detail)
}

// eventLogCap bounds the machine event log: long evaluations would
// otherwise accumulate millions of freq events.
const eventLogCap = 100_000

// EnableEventLog turns on structured event recording (off by default;
// recording costs allocations on hot paths). Existing history starts from
// this call.
func (m *Machine) EnableEventLog() {
	if m.log != nil {
		return
	}
	m.log = ringbuf.New[Event](eventLogCap)
	m.seedVFMirrors()
}

// Subscribe registers a callback invoked synchronously for every event
// from now on, whether or not the bounded log is enabled — telemetry tails
// the stream without copying (or being limited by) the log. Subscribing
// turns event generation on.
func (m *Machine) Subscribe(fn func(Event)) {
	m.subs = append(m.subs, fn)
	m.seedVFMirrors()
}

// eventsOn reports whether events are generated at all.
func (m *Machine) eventsOn() bool { return m.log != nil || len(m.subs) > 0 }

// seedVFMirrors initializes the V/F change mirrors (once) so only future
// changes produce events.
func (m *Machine) seedVFMirrors() {
	if m.lastF != nil {
		return
	}
	m.lastV = m.Chip.Voltage()
	m.lastF = make([]chip.MHz, m.Spec.PMDs())
	for p := range m.lastF {
		m.lastF[p] = m.Chip.PMDFreq(chip.PMDID(p))
	}
	m.evGen, m.evValid = m.Chip.Generation(), true
}

// Events returns a copy of the retained events, the newest eventLogCap
// in order (nil when the log is disabled or empty).
func (m *Machine) Events() []Event {
	if m.log == nil {
		return nil
	}
	events, _, _ := m.log.Since(0)
	return events
}

// EventsDropped reports how many old events the bound has overwritten.
func (m *Machine) EventsDropped() int {
	if m.log == nil {
		return 0
	}
	return int(m.log.Dropped())
}

// logEvent records an event when the log or any subscriber is active.
func (m *Machine) logEvent(kind EventKind, proc int, format string, args ...any) {
	if !m.eventsOn() {
		return
	}
	e := Event{At: m.now, Kind: kind, Proc: proc, Detail: fmt.Sprintf(format, args...)}
	if m.log != nil {
		m.log.Append(e)
	}
	for _, fn := range m.subs {
		fn(e)
	}
}

// logPlacement records a place or migrate event for p onto cores. The
// core list is formatted only when events are on, so placements on an
// unobserved machine allocate nothing for logging.
func (m *Machine) logPlacement(kind EventKind, p *Process, cores []chip.CoreID) {
	if !m.eventsOn() {
		return
	}
	verb := "on"
	if kind == EvMigrate {
		verb = "to"
	}
	m.logEvent(kind, p.ID, "%s %s %v", p.Bench.Name, verb, cores)
}
