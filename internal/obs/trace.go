package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Event is a timestamped point annotation inside a span (e.g. one MCTS
// best-reward improvement).
type Event struct {
	Name  string         `json:"name"`
	TimeU int64          `json:"t_us"` // microseconds since span start
	Attrs map[string]any `json:"attrs,omitempty"`
}

// SpanData is the serialized form of one finished span — one JSONL line.
// Parent/child structure is recoverable from SpanID/ParentID.
type SpanData struct {
	TraceID  uint64         `json:"trace_id"`
	SpanID   uint64         `json:"span_id"`
	ParentID uint64         `json:"parent_id,omitempty"`
	Name     string         `json:"name"`
	StartU   int64          `json:"start_us"` // unix microseconds
	DurU     int64          `json:"dur_us"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Events   []Event        `json:"events,omitempty"`
}

// Tracer emits finished spans as JSONL to a sink and retains a bounded ring
// of recent spans for the /debug/trace endpoint. A nil *Tracer is a valid
// no-op: Start returns a nil *Span and every span method on nil is a no-op,
// so instrumentation costs one nil check when tracing is off.
type Tracer struct {
	mu   sync.Mutex
	sink io.Writer
	ring []SpanData
	next atomic.Uint64
}

// ringCapacity bounds the recent-span ring /debug/trace serves.
const ringCapacity = 512

// NewTracer creates a tracer writing JSONL span lines to sink (nil sink:
// spans are only retained in the recent-span ring).
func NewTracer(sink io.Writer) *Tracer {
	return &Tracer{sink: sink}
}

// Start opens a root span (its own trace). End must be called to emit it.
func (t *Tracer) Start(name string) *Span {
	if t == nil {
		return nil
	}
	id := t.next.Add(1)
	return &Span{
		tracer: t,
		trace:  &pendingTrace{},
		data: SpanData{
			TraceID: id,
			SpanID:  id,
			Name:    name,
		},
		start: time.Now(),
	}
}

// Recent returns the retained finished spans, oldest first.
func (t *Tracer) Recent() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanData{}, t.ring...)
}

// emit records a finished span to the sink and ring.
func (t *Tracer) emit(d SpanData) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ring) >= ringCapacity {
		copy(t.ring, t.ring[1:])
		t.ring = t.ring[:len(t.ring)-1]
	}
	t.ring = append(t.ring, d)
	if t.sink != nil {
		line, err := json.Marshal(d)
		if err != nil {
			return
		}
		line = append(line, '\n')
		_, _ = t.sink.Write(line)
	}
}

// pendingTrace holds a trace's ended spans until its root ends, so that
// encoding and writing them never lands inside the root's own duration.
type pendingTrace struct {
	mu    sync.Mutex
	spans []SpanData
	done  bool // the root has ended: a later span is written at once
}

// add records an ended span and returns the spans now due to be written:
// none while the root is open, the whole trace in end order when the root
// ends, and a span that ends after its root on its own.
func (p *pendingTrace) add(d SpanData) []SpanData {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return []SpanData{d}
	}
	p.spans = append(p.spans, d)
	if d.ParentID != 0 {
		return nil
	}
	p.done = true
	return p.spans
}

// Span is one in-flight timed operation. All methods are nil-receiver-safe;
// a nil span (tracing off) makes the whole facility free at call sites.
type Span struct {
	tracer *Tracer
	trace  *pendingTrace
	mu     sync.Mutex
	data   SpanData
	start  time.Time
	ended  bool
}

// Child opens a sub-span within the same trace.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		tracer: s.tracer,
		trace:  s.trace,
		data: SpanData{
			TraceID:  s.data.TraceID,
			SpanID:   s.tracer.next.Add(1),
			ParentID: s.data.SpanID,
			Name:     name,
		},
		start: time.Now(),
	}
}

// SetAttr attaches a key/value attribute to the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.data.Attrs == nil {
		s.data.Attrs = make(map[string]any)
	}
	s.data.Attrs[key] = value
	s.mu.Unlock()
}

// Event records a point-in-time annotation. kv is alternating key, value
// pairs (a trailing odd key is ignored).
func (s *Span) Event(name string, kv ...any) {
	if s == nil {
		return
	}
	ev := Event{Name: name, TimeU: time.Since(s.start).Microseconds()}
	if len(kv) >= 2 {
		ev.Attrs = make(map[string]any, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			k, ok := kv[i].(string)
			if !ok {
				continue
			}
			ev.Attrs[k] = kv[i+1]
		}
	}
	s.mu.Lock()
	s.data.Events = append(s.data.Events, ev)
	s.mu.Unlock()
}

// End finishes the span. Ending twice is a no-op. A trace is written when
// its root ends, after the root's clock has stopped: its spans in the order
// they ended, so children ended before their parent precede it. A child that
// ends after its root is written when it ends.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.StartU = s.start.UnixMicro()
	s.data.DurU = time.Since(s.start).Microseconds()
	d := s.data
	s.mu.Unlock()
	for _, due := range s.trace.add(d) {
		s.tracer.emit(due)
	}
}

// defaultTracer is the process-wide tracer picked up by autoindex.New when
// no tracer is injected explicitly. It defaults to nil (tracing off) so
// deterministic experiments and benchmarks pay only nil checks.
var defaultTracer atomic.Pointer[Tracer]

// SetDefaultTracer installs the process-wide default tracer (nil to turn
// tracing back off). cmd/benchrunner sets this from --trace-out so every
// manager constructed inside the experiments is traced without plumbing.
func SetDefaultTracer(t *Tracer) { defaultTracer.Store(t) }

// DefaultTracer returns the process-wide tracer; nil means tracing is off.
func DefaultTracer() *Tracer { return defaultTracer.Load() }

// defaultRegistry mirrors defaultTracer for metrics.
var defaultRegistry atomic.Pointer[Registry]

// SetDefaultRegistry installs the process-wide default metrics registry
// (nil to turn the default off).
func SetDefaultRegistry(r *Registry) { defaultRegistry.Store(r) }

// DefaultRegistry returns the process-wide registry; nil means metrics are
// off by default.
func DefaultRegistry() *Registry { return defaultRegistry.Load() }
