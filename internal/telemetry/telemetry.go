// Package telemetry is the execution-observability bus of the
// repository: a low-overhead event stream the shared executor
// (internal/exec) and the timing simulators (internal/eventsim,
// internal/wormhole, internal/packetsim) emit into, so a run can be
// inspected *inside* a phase rather than only through end-of-run
// aggregates. The paper's cost model (Sections 3.4, 4.3, Table 1)
// decomposes exchange time into startup (ts), transmission (tc),
// rearrangement (rho) and propagation (tl); every span event carries
// that four-way attribution, which is what makes a recorded timeline
// answer "where does the time go" questions directly.
//
// The stream consists of
//
//   - span events (begin/end pairs) for the run, each phase, each step
//     and each transfer, carrying the model-time interval, the
//     ts/tc/rho/tl attribution in microseconds, and — under parallel
//     execution — the ID of the pool worker that processed the step;
//   - counters (run-level totals such as steps, blocks, completion);
//   - gauges, notably per-link utilization and contention keyed by the
//     physical channel (dim, direction, source coordinate).
//
// Telemetry must never tax a run that did not ask for it: a nil
// *Recorder disables everything behind a single branch (benchmarked in
// internal/exec), and emitters only walk their telemetry code when
// Recorder.Enabled reports true. Emission is deterministic — the
// executor and simulators emit from serial post-passes in schedule
// order, so serial and parallel runs of the same schedule produce
// identical streams up to worker IDs, and Canonical normalizes those
// away (enforced by the differential tests in internal/exec).
package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync"

	"torusx/internal/costmodel"
	"torusx/internal/topology"
)

// Kind distinguishes the event classes of the stream.
type Kind uint8

const (
	// SpanBegin opens a span; its Time is the span's start.
	SpanBegin Kind = iota
	// SpanEnd closes a span; its Time is the span's end and it carries
	// the span's cost attribution.
	SpanEnd
	// CounterKind is a run-level total (Value at Time).
	CounterKind
	// GaugeKind is a sampled measurement, e.g. one link's utilization.
	GaugeKind
)

func (k Kind) String() string {
	switch k {
	case SpanBegin:
		return "begin"
	case SpanEnd:
		return "end"
	case CounterKind:
		return "counter"
	default:
		return "gauge"
	}
}

// MarshalJSON renders the kind as its human-readable name, so a JSONL
// stream reads without a legend.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON accepts the names written by MarshalJSON.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	switch s {
	case "begin":
		*k = SpanBegin
	case "end":
		*k = SpanEnd
	case "counter":
		*k = CounterKind
	default:
		*k = GaugeKind
	}
	return nil
}

// Scope names the entity a span or measurement describes.
type Scope uint8

const (
	ScopeRun Scope = iota
	ScopePhase
	ScopeStep
	ScopeTransfer
	ScopeLink
	ScopeNode
	// ScopeRequest and ScopeStage carry wall-clock pipeline spans from
	// internal/obs (one serving request and its cache-lookup / compile /
	// replay stages); their Time axis is real microseconds since the
	// request started, not model time, and the Chrome export renders
	// them on their own process track.
	ScopeRequest
	ScopeStage
)

func (s Scope) String() string {
	switch s {
	case ScopeRun:
		return "run"
	case ScopePhase:
		return "phase"
	case ScopeStep:
		return "step"
	case ScopeTransfer:
		return "transfer"
	case ScopeLink:
		return "link"
	case ScopeRequest:
		return "request"
	case ScopeStage:
		return "stage"
	default:
		return "node"
	}
}

// MarshalJSON renders the scope as its name.
func (s Scope) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON accepts the names written by MarshalJSON.
func (s *Scope) UnmarshalJSON(b []byte) error {
	var v string
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch v {
	case "run":
		*s = ScopeRun
	case "phase":
		*s = ScopePhase
	case "step":
		*s = ScopeStep
	case "transfer":
		*s = ScopeTransfer
	case "link":
		*s = ScopeLink
	case "request":
		*s = ScopeRequest
	case "stage":
		*s = ScopeStage
	default:
		*s = ScopeNode
	}
	return nil
}

// Event is one record of the stream. The ordinal coordinates (Phase,
// Step, Transfer; -1 where not applicable) locate the event inside the
// schedule and define the canonical order; Worker is diagnostic only
// — it records scheduling, not semantics, and Canonical clears it.
type Event struct {
	Kind  Kind   `json:"kind"`
	Scope Scope  `json:"scope"`
	Name  string `json:"name"`
	// Label distinguishes interleaved producers on one sink, e.g. the
	// "alg@dims" cell of a benchmark sweep. Stamped by the Recorder.
	Label string `json:"label,omitempty"`

	// Phase is the phase index, Step the global step index across the
	// whole schedule, Transfer the transfer index within its step.
	Phase    int `json:"phase"`
	Step     int `json:"step"`
	Transfer int `json:"transfer"`
	// Worker is the ID of the pool worker that processed the step
	// (0 on serial runs).
	Worker int `json:"worker"`

	// Time is the model-clock timestamp in microseconds; Value carries
	// counter/gauge payloads (and, on step SpanEnd events, the step's
	// link-sharing serialization factor).
	Time  float64 `json:"time_us"`
	Value float64 `json:"value"`

	// Cost attribution of the closed span, in microseconds, following
	// the paper's four components.
	Startup   float64 `json:"ts_us,omitempty"`
	Transmit  float64 `json:"tc_us,omitempty"`
	Propagate float64 `json:"tl_us,omitempty"`
	Rearrange float64 `json:"rho_us,omitempty"`

	// Transfer geometry (ScopeTransfer) and link key (ScopeLink /
	// ScopeNode): Dir is +1/-1 (0 when not applicable), Node the link's
	// source node or the node a gauge describes, Coord its coordinate.
	Src    int   `json:"src"`
	Dst    int   `json:"dst"`
	Blocks int   `json:"blocks"`
	Hops   int   `json:"hops"`
	Dim    int   `json:"dim"`
	Dir    int   `json:"dir"`
	Node   int   `json:"node"`
	Coord  []int `json:"coord,omitempty"`
}

// Link reconstructs the physical-channel key of a ScopeLink event.
func (ev *Event) Link() topology.Link {
	return topology.Link{From: topology.NodeID(ev.Node), Dim: ev.Dim, Dir: topology.Direction(ev.Dir)}
}

// Sink consumes events. Implementations must be safe for concurrent
// Emit calls: the emitters themselves serialize their post-passes, but
// several recorders (e.g. one per benchmark cell) may share one sink.
type Sink interface {
	Emit(Event)
}

// NopSink accepts and drops every event. It prices the enabled-path
// bookkeeping without any storage, which is what the overhead
// benchmarks compare the disabled path against.
type NopSink struct{}

// Emit discards the event.
func (NopSink) Emit(Event) {}

// MemorySink collects the stream in memory, in arrival order.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends the event.
func (m *MemorySink) Emit(ev Event) {
	m.mu.Lock()
	m.events = append(m.events, ev)
	m.mu.Unlock()
}

// Events returns a copy of the collected stream in arrival order.
func (m *MemorySink) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

// Len reports how many events have been collected.
func (m *MemorySink) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.events)
}

// JSONLSink streams each event as one JSON object per line, in arrival
// order. Write errors are sticky and reported by Err rather than
// interrupting the instrumented run.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONLSink wraps w in a line-oriented JSON sink.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit writes the event as one JSON line.
func (s *JSONLSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(&ev)
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// multiSink fans every event out to several sinks in order.
type multiSink []Sink

func (m multiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// Multi combines sinks into one; nil sinks are skipped. With zero or
// one live sink the input is returned directly.
func Multi(sinks ...Sink) Sink {
	var live multiSink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// Recorder is the handle emitters hold. A nil Recorder (or one with a
// nil Sink) is the disabled state: Enabled is the single branch on the
// executor's hot path, and every instrumented loop is skipped entirely
// when it reports false. Params converts the schedule's unit counters
// (steps, blocks, hops) into the stream's model-time axis.
type Recorder struct {
	Sink   Sink
	Params costmodel.Params
	// Label is stamped into every event (see Event.Label).
	Label string
}

// New builds a recorder over sink with the given machine parameters.
func New(sink Sink, p costmodel.Params) *Recorder {
	return &Recorder{Sink: sink, Params: p}
}

// Enabled reports whether events will be recorded. Safe on nil.
func (r *Recorder) Enabled() bool { return r != nil && r.Sink != nil }

// Emit stamps the recorder's label and forwards to the sink; a no-op
// when disabled.
func (r *Recorder) Emit(ev Event) {
	if !r.Enabled() {
		return
	}
	if ev.Label == "" {
		ev.Label = r.Label
	}
	r.Sink.Emit(ev)
}

// Counter emits a run-level total.
func (r *Recorder) Counter(name string, time, value float64) {
	r.Emit(Event{Kind: CounterKind, Scope: ScopeRun, Name: name,
		Phase: -1, Step: -1, Transfer: -1, Time: time, Value: value})
}

// LinkGauge emits one link's measurement keyed by (dim, direction,
// source coordinate); f resolves the link's source node to its
// coordinate and may be nil when unknown.
func (r *Recorder) LinkGauge(name string, f topology.Fabric, l topology.Link, value float64) {
	if !r.Enabled() {
		return
	}
	ev := Event{Kind: GaugeKind, Scope: ScopeLink, Name: name,
		Phase: -1, Step: -1, Transfer: -1,
		Dim: l.Dim, Dir: int(l.Dir), Node: int(l.From), Value: value}
	if f != nil {
		ev.Coord = append([]int(nil), f.CoordOf(l.From)...)
	}
	r.Emit(ev)
}

// NodeGauge emits one node's measurement (e.g. its asynchronous finish
// time); f may be nil.
func (r *Recorder) NodeGauge(name string, f topology.Fabric, node int, value float64) {
	if !r.Enabled() {
		return
	}
	ev := Event{Kind: GaugeKind, Scope: ScopeNode, Name: name,
		Phase: -1, Step: -1, Transfer: -1, Node: node, Value: value}
	if f != nil {
		ev.Coord = append([]int(nil), f.CoordOf(topology.NodeID(node))...)
	}
	r.Emit(ev)
}

// Canonical returns the stream sorted by its semantic total order —
// ordinal schedule coordinates first, then scope, kind, name and link
// key — with the diagnostic Worker field cleared. Two runs of the same
// schedule are equivalent exactly when their canonical streams are
// deep-equal; this is the comparison the telemetry differential tests
// perform.
func Canonical(events []Event) []Event {
	out := make([]Event, len(events))
	copy(out, events)
	for i := range out {
		out[i].Worker = 0
	}
	sort.SliceStable(out, func(i, j int) bool { return canonLess(&out[i], &out[j]) })
	return out
}

// canonLess is the total order behind Canonical.
func canonLess(a, b *Event) bool {
	if a.Label != b.Label {
		return a.Label < b.Label
	}
	if a.Phase != b.Phase {
		return a.Phase < b.Phase
	}
	if a.Step != b.Step {
		return a.Step < b.Step
	}
	if a.Transfer != b.Transfer {
		return a.Transfer < b.Transfer
	}
	if a.Scope != b.Scope {
		return a.Scope < b.Scope
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.Dim != b.Dim {
		return a.Dim < b.Dim
	}
	if a.Dir != b.Dir {
		return a.Dir < b.Dir
	}
	if a.Node != b.Node {
		return a.Node < b.Node
	}
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.Value < b.Value
}

// UtilizationByLink extracts the per-link values of gauge name from a
// recorded stream, keyed by the physical channel — the input the
// heatmap renderer in internal/trace consumes.
func UtilizationByLink(events []Event, name string) map[topology.Link]float64 {
	m := make(map[topology.Link]float64)
	for i := range events {
		ev := &events[i]
		if ev.Kind == GaugeKind && ev.Scope == ScopeLink && ev.Name == name {
			m[ev.Link()] = ev.Value
		}
	}
	return m
}
