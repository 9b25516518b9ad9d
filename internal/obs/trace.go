package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value string
}

// String builds a string-valued Attr.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer-valued Attr.
func Int(key string, value int) Attr { return Attr{Key: key, Value: strconv.Itoa(value)} }

// Span is one recorded stage of a trace: a name, when it started, how
// long it took, and optional attributes. Spans are value records — they
// are appended to a Trace once, fully formed, via Trace.Record or
// ActiveSpan.End.
type Span struct {
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
}

// maxSpansPerTrace bounds one trace's span list so a genome-sized bulk
// job (thousands of scheduler submissions) cannot grow its trace without
// limit. Overflow is counted, not silently discarded.
const maxSpansPerTrace = 256

// Trace is one request's (or job's, or batch's) recording: an ID, a
// name, a start time, and the spans recorded while it was live. All
// methods are safe for concurrent use and nil-safe — calling Record,
// Start or Finish on a nil *Trace is a no-op, so instrumentation points
// never need to check whether tracing is attached.
type Trace struct {
	ID    string
	Name  string
	Begin time.Time

	mu      sync.Mutex
	end     time.Time
	spans   []Span
	dropped int
}

// NewTrace starts a trace now. An empty id generates a fresh random
// request ID (16 hex characters).
func NewTrace(name, id string) *Trace {
	if id == "" {
		id = NewID()
	}
	return &Trace{ID: id, Name: name, Begin: time.Now()}
}

// NewID returns a random 16-hex-character request/trace ID.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Degrade to a timestamp: uniqueness suffers, tracing still works.
		return strconv.FormatInt(time.Now().UnixNano(), 16)
	}
	return hex.EncodeToString(b[:])
}

// ctxKey is the context key type for trace propagation.
type ctxKey struct{}

// WithTrace returns a context carrying t.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil. The nil trace
// is fully usable (every method no-ops), so callers never branch.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// Record appends a completed span. Past maxSpansPerTrace the span is
// counted as dropped instead of appended.
func (t *Trace) Record(name string, start time.Time, d time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) >= maxSpansPerTrace {
		t.dropped++
	} else {
		t.spans = append(t.spans, Span{Name: name, Start: start, Duration: d, Attrs: attrs})
	}
	t.mu.Unlock()
}

// ActiveSpan is an in-progress span: End records it on its trace. The
// zero/nil ActiveSpan (from a nil trace) no-ops.
type ActiveSpan struct {
	t     *Trace
	name  string
	start time.Time
	attrs []Attr
}

// Start begins a span on t; call End on the result to record it.
func (t *Trace) Start(name string, attrs ...Attr) *ActiveSpan {
	if t == nil {
		return nil
	}
	return &ActiveSpan{t: t, name: name, start: time.Now(), attrs: attrs}
}

// StartSpan begins a span on the trace carried by ctx (no-op span when
// ctx carries none).
func StartSpan(ctx context.Context, name string, attrs ...Attr) *ActiveSpan {
	return FromContext(ctx).Start(name, attrs...)
}

// End records the span with its duration so far.
func (s *ActiveSpan) End() {
	if s == nil {
		return
	}
	s.t.Record(s.name, s.start, time.Since(s.start), s.attrs...)
}

// Finish stamps the trace's end time (first call wins) and returns its
// total duration.
func (t *Trace) Finish() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	if t.end.IsZero() {
		t.end = time.Now()
	}
	d := t.end.Sub(t.Begin)
	t.mu.Unlock()
	return d
}

// Absorb copies every span of o into t (bounded by t's span cap). The
// scheduler uses it to splice a shared batch trace — batch assembly and
// backend execution — into each co-batched request's own trace.
func (t *Trace) Absorb(o *Trace) {
	if t == nil || o == nil {
		return
	}
	o.mu.Lock()
	spans := make([]Span, len(o.spans))
	copy(spans, o.spans)
	dropped := o.dropped
	o.mu.Unlock()
	t.mu.Lock()
	for _, sp := range spans {
		if len(t.spans) >= maxSpansPerTrace {
			t.dropped++
			continue
		}
		t.spans = append(t.spans, sp)
	}
	t.dropped += dropped
	t.mu.Unlock()
}

// TraceView is a finished trace rendered for serialization (the
// GET /debug/traces wire shape). Span offsets and durations are
// milliseconds relative to the trace start.
type TraceView struct {
	ID           string     `json:"id"`
	Name         string     `json:"name"`
	Start        time.Time  `json:"start"`
	DurationMS   float64    `json:"duration_ms"`
	Spans        []SpanView `json:"spans"`
	SpansDropped int        `json:"spans_dropped,omitempty"`
}

// SpanView is one span of a TraceView.
type SpanView struct {
	Name       string            `json:"name"`
	OffsetMS   float64           `json:"offset_ms"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
}

// View renders the trace. A live trace (no Finish yet) reports its
// duration so far.
func (t *Trace) View() TraceView {
	if t == nil {
		return TraceView{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.end
	if end.IsZero() {
		end = time.Now()
	}
	v := TraceView{
		ID:           t.ID,
		Name:         t.Name,
		Start:        t.Begin,
		DurationMS:   durMS(end.Sub(t.Begin)),
		Spans:        make([]SpanView, len(t.spans)),
		SpansDropped: t.dropped,
	}
	for i, sp := range t.spans {
		sv := SpanView{
			Name:       sp.Name,
			OffsetMS:   durMS(sp.Start.Sub(t.Begin)),
			DurationMS: durMS(sp.Duration),
		}
		if len(sp.Attrs) > 0 {
			sv.Attrs = make(map[string]string, len(sp.Attrs))
			for _, a := range sp.Attrs {
				sv.Attrs[a.Key] = a.Value
			}
		}
		v.Spans[i] = sv
	}
	return v
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// TraceLog is a bounded ring buffer of finished traces, newest
// overwriting oldest. Safe for concurrent use.
type TraceLog struct {
	mu    sync.Mutex
	buf   []*Trace
	next  int
	total int64
}

// NewTraceLog returns a ring holding up to capacity traces (minimum 1).
func NewTraceLog(capacity int) *TraceLog {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceLog{buf: make([]*Trace, capacity)}
}

// Add appends a trace, evicting the oldest when full.
func (l *TraceLog) Add(t *Trace) {
	if l == nil || t == nil {
		return
	}
	l.mu.Lock()
	l.buf[l.next] = t
	l.next = (l.next + 1) % len(l.buf)
	l.total++
	l.mu.Unlock()
}

// Total reports how many traces have ever been added.
func (l *TraceLog) Total() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Snapshot renders up to limit of the most recent traces, newest first
// (limit <= 0 means all retained).
func (l *TraceLog) Snapshot(limit int) []TraceView {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	traces := make([]*Trace, 0, len(l.buf))
	for i := 1; i <= len(l.buf); i++ {
		// Walk backwards from the most recently written slot.
		t := l.buf[(l.next-i+len(l.buf))%len(l.buf)]
		if t == nil {
			break
		}
		traces = append(traces, t)
	}
	l.mu.Unlock()
	if limit > 0 && len(traces) > limit {
		traces = traces[:limit]
	}
	out := make([]TraceView, len(traces))
	for i, t := range traces {
		out[i] = t.View()
	}
	return out
}
