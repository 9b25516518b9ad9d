package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one read, pair or
// request share a trace id; a root span has parent -1.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced run: every method is a no-op, so call sites need no
// branches.
type recorder struct {
	epoch  time.Time
	traces atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newTrace returns a fresh trace id.
func (r *recorder) newTrace() int64 {
	if r == nil {
		return 0
	}
	return r.traces.Add(1)
}

// begin opens a span and returns its id (-1 when untraced).
func (r *recorder) begin(trace int64, parent int32, name string) int32 {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: now, End: now})
	r.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add files a span measured elsewhere, such as a request whose timing
// starts at its intended send rather than at the call.
func (r *recorder) add(trace int64, parent int32, name string, start time.Time, d time.Duration) int32 {
	if r == nil {
		return -1
	}
	s := int64(start.Sub(r.epoch))
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: s, End: s + int64(d)})
	r.mu.Unlock()
	return id
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// layerTime aggregates every span of one name.
type layerTime struct {
	Count       int
	Total, Self time.Duration
}

// selfTimes sums, per span name, the spans' durations and their self
// times: a span's duration minus the part of it its children cover
// (overlapping children count once; a child sticking out of its parent
// counts only inside it).
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		dur := s.End - s.Start
		self := dur - covered(s, children[s.ID])
		lt := out[s.Name]
		lt.Count++
		lt.Total += time.Duration(dur)
		lt.Self += time.Duration(self)
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	started := false
	for _, x := range iv {
		switch {
		case !started:
			curLo, curHi, started = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}
