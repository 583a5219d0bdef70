package telemetry

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"avfs/internal/chip"
	"avfs/internal/sim"
)

// DecisionKind classifies one entry of the decision trace.
type DecisionKind uint8

const (
	// DecClassify: a measurement window closed and the process was
	// (re)classified against the L3C threshold.
	DecClassify DecisionKind = iota
	// DecClassFlip: the classification changed (a subset of DecClassify
	// outcomes, emitted as its own event so churn is directly countable).
	DecClassFlip
	// DecPlacement: the placement policy computed a new target plan.
	DecPlacement
	// DecGuardRaise: fail-safe phase A — the voltage was raised to a
	// level safe for both the old and the new configuration.
	DecGuardRaise
	// DecReconfigure: fail-safe phase B — migrations and the per-PMD
	// frequency program.
	DecReconfigure
	// DecSettle: fail-safe phase C — the voltage settled to the new
	// configuration's safe level.
	DecSettle
	// DecMachineEvent: a simulator event (submit/place/migrate/finish/
	// voltage/freq/emergency) forwarded onto the trace bus.
	DecMachineEvent
)

// kindNames maps kinds to their wire names (JSONL "kind" field).
var kindNames = [...]string{
	DecClassify:     "classify",
	DecClassFlip:    "class-flip",
	DecPlacement:    "placement",
	DecGuardRaise:   "guard-raise",
	DecReconfigure:  "reconfigure",
	DecSettle:       "settle",
	DecMachineEvent: "machine-event",
}

// String names the kind.
func (k DecisionKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("DecisionKind(%d)", int(k))
}

// MarshalText renders the kind as its wire name.
func (k DecisionKind) MarshalText() ([]byte, error) {
	if int(k) >= len(kindNames) {
		return nil, fmt.Errorf("telemetry: unknown decision kind %d", int(k))
	}
	return []byte(kindNames[k]), nil
}

// UnmarshalText parses a wire name back into a kind.
func (k *DecisionKind) UnmarshalText(b []byte) error {
	for i, n := range kindNames {
		if n == string(b) {
			*k = DecisionKind(i)
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown decision kind %q", b)
}

// Decision is the wire form of one decision-trace entry (the JSONL and
// /trace encoding, rendered from a Record): what the daemon (or the
// machine) did, the inputs it saw, and the rule that fired. Zero-value
// fields are omitted from the JSONL encoding except Proc, which uses -1
// for "no process" because 0 is a valid process ID.
type Decision struct {
	// At is the simulation time in seconds.
	At float64 `json:"t"`
	// Kind is the event type.
	Kind DecisionKind `json:"kind"`
	// Rule names the policy rule that fired (e.g. "l3c>=threshold+hyst",
	// "fail-safe-raise", "cluster-cpu/spread-mem").
	Rule string `json:"rule,omitempty"`
	// Reconfig links the guard-raise/reconfigure/settle phases of one
	// reconfiguration (monotone sequence number; 0 = not a phase).
	Reconfig int64 `json:"reconfig,omitempty"`
	// Proc is the subject process ID, -1 when the decision is global.
	Proc int `json:"proc"`
	// Class is the (new) classification for classify/flip events.
	Class string `json:"class,omitempty"`
	// L3CRate is the measured L3C accesses per 1M cycles per core.
	L3CRate float64 `json:"l3c_per_1m,omitempty"`
	// UtilizedPMDs is the utilized-PMD count the decision saw.
	UtilizedPMDs int `json:"utilized_pmds,omitempty"`
	// DroopClass is the Table II droop magnitude class (0-3).
	DroopClass int `json:"droop_class,omitempty"`
	// FromMV/ToMV are the voltage move of guard-raise/settle phases.
	FromMV int `json:"from_mv,omitempty"`
	ToMV   int `json:"to_mv,omitempty"`
	// RequiredMV is the Table II requirement (envelope + guard) of the
	// target configuration — the chosen Vmin.
	RequiredMV int `json:"required_mv,omitempty"`
	// Detail is a free-form human-readable summary.
	Detail string `json:"detail,omitempty"`
}

// Record is one decision-trace entry in the compact typed form the
// tracer bus and the session decision rings carry: its operands, not its
// text. Decision renders the wire form when a record is read, so emitting
// one formats and allocates nothing. The fields each kind sets:
//
//	classify       Rule Proc Class Value(L3C rate) UtilizedPMDs DroopClass
//	class-flip     Rule Proc Class PrevClass Value(L3C rate)
//	placement      Rule UtilizedPMDs DroopClass N(processes planned)
//	guard-raise    Reconfig Rule From To Required (mV) UtilizedPMDs
//	               DroopClass N(guard level, mV; 0 renders no detail)
//	reconfigure    Reconfig Rule UtilizedPMDs DroopClass N(migrations)
//	settle         Reconfig Rule From To Required (mV) UtilizedPMDs DroopClass
//	machine-event  Event Proc Text Value(sim.Event.Secs) N From To
//
// Proc is -1 when a record concerns no process.
type Record struct {
	At       float64
	Value    float64
	Reconfig int64
	Text     string
	Proc     int32
	From, To int32
	Required int32
	N        int32
	Rule     Sym
	Class    Sym
	// PrevClass is the class a class-flip left.
	PrevClass    Sym
	UtilizedPMDs uint16
	Kind         DecisionKind
	// Event is a machine-event record's sim event kind.
	Event      sim.EventKind
	DroopClass uint8
}

// MachineRecord is the machine-event record of a simulator event.
func MachineRecord(e sim.Event) Record {
	return Record{
		At: e.At, Kind: DecMachineEvent, Event: e.Kind, Proc: int32(e.Proc),
		Text: e.Text, Value: e.Secs, N: e.N, From: e.From, To: e.To,
	}
}

// Decision renders the record's wire form.
func (r *Record) Decision() Decision {
	if r.Kind == DecMachineEvent {
		e := sim.Event{At: r.At, Kind: r.Event, Proc: int(r.Proc), Text: r.Text, Secs: r.Value, N: r.N, From: r.From, To: r.To}
		return Decision{At: r.At, Kind: DecMachineEvent, Rule: r.Event.String(), Proc: int(r.Proc), Detail: e.Detail()}
	}
	d := Decision{
		At: r.At, Kind: r.Kind, Rule: r.Rule.String(), Reconfig: r.Reconfig, Proc: int(r.Proc),
		Class: r.Class.String(), L3CRate: r.Value,
		UtilizedPMDs: int(r.UtilizedPMDs), DroopClass: int(r.DroopClass),
		FromMV: int(r.From), ToMV: int(r.To), RequiredMV: int(r.Required),
	}
	switch r.Kind {
	case DecClassFlip:
		d.Detail = r.PrevClass.String() + " -> " + d.Class
	case DecPlacement:
		d.Detail = strconv.Itoa(int(r.N)) + " processes planned"
	case DecGuardRaise:
		if r.N != 0 {
			d.Detail = "guard level " + chip.Millivolts(r.N).String()
		}
	case DecReconfigure:
		d.Detail = "migrations=" + strconv.Itoa(int(r.N))
	}
	return d
}

// Sym is an interned name from a small fixed vocabulary (decision rules,
// process classes): two bytes in a Record where a string takes sixteen.
// Intern each name once, in a package-level variable; the table is never
// freed, so never intern unbounded input. Sym(0) is "".
type Sym uint16

// symtab is the interned vocabulary: names is replaced, never mutated, so
// String reads it with one atomic load.
var symtab = struct {
	mu    sync.Mutex
	ids   map[string]Sym
	names atomic.Pointer[[]string]
}{ids: map[string]Sym{"": 0}}

func init() { symtab.names.Store(&[]string{""}) }

// Intern returns the symbol of name, adding it on first use.
func Intern(name string) Sym {
	symtab.mu.Lock()
	defer symtab.mu.Unlock()
	if id, ok := symtab.ids[name]; ok {
		return id
	}
	old := *symtab.names.Load()
	if len(old) > math.MaxUint16 {
		panic("telemetry: symbol table full")
	}
	names := append(old[:len(old):len(old)], name)
	id := Sym(len(old))
	symtab.ids[name] = id
	symtab.names.Store(&names)
	return id
}

// String returns the interned name ("" for an unknown symbol).
func (s Sym) String() string {
	if names := *symtab.names.Load(); int(s) < len(names) {
		return names[s]
	}
	return ""
}

// Tracer is the decision-trace bus: emitters publish Records, sinks
// subscribe. When disabled — or with no subscriber — Active is two atomic
// loads and emitters skip building the Record entirely.
type Tracer struct {
	mu    sync.Mutex
	subs  []func(Record)
	nsubs atomic.Int32
	off   atomic.Bool // inverted so the zero value is "enabled"
	seq   atomic.Int64
}

// NewTracer creates an enabled tracer with no subscribers.
func NewTracer() *Tracer { return &Tracer{} }

// Subscribe adds a sink invoked synchronously for every record, in
// subscription order.
func (t *Tracer) Subscribe(fn func(Record)) {
	t.mu.Lock()
	t.subs = append(t.subs, fn)
	t.mu.Unlock()
	t.nsubs.Add(1)
}

// SetEnabled turns tracing on or off (the avfsd "trace on|off" command).
// Subscribers stay attached; while off, emitters skip record construction.
func (t *Tracer) SetEnabled(on bool) { t.off.Store(!on) }

// Enabled reports the switch state.
func (t *Tracer) Enabled() bool { return !t.off.Load() }

// Active reports whether an Emit would reach anyone — emitters check this
// before assembling a Record so disabled tracing costs two atomic loads.
func (t *Tracer) Active() bool { return !t.off.Load() && t.nsubs.Load() > 0 }

// NextReconfig allocates the sequence number linking the phases of one
// reconfiguration. The first ID is 1; 0 means "not part of one".
func (t *Tracer) NextReconfig() int64 { return t.seq.Add(1) }

// Emit publishes one record to every subscriber.
func (t *Tracer) Emit(r Record) {
	if !t.Active() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, fn := range t.subs {
		fn(r)
	}
}
