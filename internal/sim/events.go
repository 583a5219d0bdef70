package sim

import (
	"fmt"
	"strconv"

	"avfs/internal/chip"
	"avfs/internal/ringbuf"
)

// EventKind classifies a machine event.
type EventKind uint8

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

// Event is one entry of the machine's event log. It carries its operands,
// not its text: Detail renders the summary only when read, so logging a
// V/F change or an emergency formats and allocates nothing.
type Event struct {
	At   float64
	Kind EventKind
	// Proc is the process ID for lifecycle events, -1 otherwise.
	Proc int
	// Text is the benchmark of a submit or finish, and the whole detail
	// of a place or migrate (rare events, rendered with their core list
	// when logged).
	Text string
	// Secs is a finished process's runtime in seconds.
	Secs float64
	// N is a submit's thread count or a freq event's PMD.
	N int32
	// From and To are a voltage (mV) or freq (MHz) event's levels before
	// and after, and an emergency's programmed voltage and requirement (mV).
	From, To int32
}

// Detail renders the event's human-readable summary.
func (e Event) Detail() string {
	var buf [64]byte
	b := buf[:0]
	switch e.Kind {
	case EvSubmit:
		b = append(append(b, e.Text...), " x"...)
		b = append(strconv.AppendInt(b, int64(e.N), 10), " threads"...)
	case EvFinish:
		b = append(append(b, e.Text...), " after "...)
		b = append(strconv.AppendFloat(b, e.Secs, 'f', 1, 64), 's')
	case EvVoltage:
		b = append(appendMV(b, e.From), " -> "...)
		b = appendMV(b, e.To)
	case EvFreq:
		b = append(strconv.AppendInt(append(b, "PMD"...), int64(e.N), 10), ' ')
		b = append(appendMHz(b, e.From), " -> "...)
		b = appendMHz(b, e.To)
	case EvEmergency:
		b = append(appendMV(append(b, "V="...), e.From), " < required "...)
		b = appendMV(b, e.To)
	default:
		b = append(b, e.Text...)
	}
	return string(b)
}

// appendMV and appendMHz append a level as chip.Millivolts and chip.MHz
// render it.
func appendMV(b []byte, v int32) []byte  { return append(strconv.AppendInt(b, int64(v), 10), "mV"...) }
func appendMHz(b []byte, f int32) []byte { return append(strconv.AppendInt(b, int64(f), 10), "MHz"...) }

// String renders the event as a log line.
func (e Event) String() string {
	if e.Proc >= 0 {
		return fmt.Sprintf("%9.3fs %-9s proc=%d %s", e.At, e.Kind, e.Proc, e.Detail())
	}
	return fmt.Sprintf("%9.3fs %-9s %s", e.At, e.Kind, e.Detail())
}

// eventLogCap bounds the machine event log: long evaluations would
// otherwise accumulate millions of freq events.
const eventLogCap = 100_000

// EnableEventLog turns on structured event recording (off by default;
// place and migrate events allocate their text, and the log's slots grow
// up to eventLogCap). Existing history starts from this call.
func (m *Machine) EnableEventLog() {
	if m.log != nil {
		return
	}
	m.log = ringbuf.New[Event](eventLogCap)
}

// Subscribe registers a callback invoked synchronously for every event
// from now on, whether or not the bounded log is enabled — telemetry tails
// the stream without copying (or being limited by) the log. Subscribing
// turns event generation on.
func (m *Machine) Subscribe(fn func(Event)) {
	m.subs = append(m.subs, fn)
}

// eventsOn reports whether events are generated at all.
func (m *Machine) eventsOn() bool { return m.log != nil || len(m.subs) > 0 }

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

// logEvent stamps e with the current time and records it when the log or
// any subscriber is active.
func (m *Machine) logEvent(e Event) {
	if !m.eventsOn() {
		return
	}
	e.At = m.now
	if m.log != nil {
		m.log.Append(e)
	}
	for _, fn := range m.subs {
		fn(e)
	}
}

// logPlacement records a place or migrate event for p onto cores, its
// text rendered as "%s on %v" ("to" for a migrate) renders it. The core
// list is rendered only when events are on, so placements on an
// unobserved machine allocate nothing for logging.
func (m *Machine) logPlacement(kind EventKind, p *Process, cores []chip.CoreID) {
	if !m.eventsOn() {
		return
	}
	verb := " on ["
	if kind == EvMigrate {
		verb = " to ["
	}
	var buf [128]byte
	b := append(append(buf[:0], p.Bench.Name...), verb...)
	for i, c := range cores {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(c), 10)
	}
	m.logEvent(Event{Kind: kind, Proc: p.ID, Text: string(append(b, ']'))})
}
