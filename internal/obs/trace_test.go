package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Record("x", time.Now(), time.Millisecond)
	sp := tr.Start("y")
	sp.End()
	tr.Absorb(NewTrace("other", ""))
	if d := tr.Finish(); d != 0 {
		t.Fatalf("nil trace Finish = %v, want 0", d)
	}
	if v := tr.View(); len(v.Spans) != 0 {
		t.Fatalf("nil trace View has spans: %+v", v)
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext(empty) = %v, want nil", got)
	}
	if sp := StartSpan(context.Background(), "z"); sp != nil {
		sp.End() // must not panic either way
		t.Fatalf("StartSpan on traceless ctx = %v, want nil", sp)
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	tr := NewTrace("req", "abc123")
	ctx := WithTrace(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Fatalf("FromContext = %p, want %p", got, tr)
	}
	sp := StartSpan(ctx, "stage", String("k", "v"), Int("n", 7))
	time.Sleep(time.Millisecond)
	sp.End()
	v := tr.View()
	if v.ID != "abc123" || v.Name != "req" {
		t.Fatalf("view identity = %q/%q", v.ID, v.Name)
	}
	if len(v.Spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(v.Spans))
	}
	s := v.Spans[0]
	if s.Name != "stage" || s.DurationMS <= 0 {
		t.Fatalf("span = %+v", s)
	}
	if s.Attrs["k"] != "v" || s.Attrs["n"] != "7" {
		t.Fatalf("attrs = %v", s.Attrs)
	}
}

func TestNewIDShape(t *testing.T) {
	a, b := NewID(), NewID()
	if len(a) != 16 {
		t.Fatalf("NewID length = %d, want 16", len(a))
	}
	if a == b {
		t.Fatalf("two NewID calls collided: %s", a)
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace("big", "")
	for i := 0; i < maxSpansPerTrace+50; i++ {
		tr.Record("s", time.Now(), time.Microsecond)
	}
	v := tr.View()
	if len(v.Spans) != maxSpansPerTrace {
		t.Fatalf("spans = %d, want cap %d", len(v.Spans), maxSpansPerTrace)
	}
	if v.SpansDropped != 50 {
		t.Fatalf("dropped = %d, want 50", v.SpansDropped)
	}
}

func TestTraceConcurrentRecord(t *testing.T) {
	tr := NewTrace("conc", "")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				tr.Record("span", time.Now(), time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := len(tr.View().Spans); got != 160 {
		t.Fatalf("spans = %d, want 160", got)
	}
}

func TestTraceAbsorb(t *testing.T) {
	batch := NewTrace("batch", "")
	batch.Record("backend_exec", time.Now(), 3*time.Millisecond, String("backend", "cpu"))
	batch.Record("batch_assemble", time.Now(), time.Millisecond)
	req := NewTrace("request", "")
	req.Record("queue_wait", time.Now(), time.Millisecond)
	req.Absorb(batch)
	v := req.View()
	if len(v.Spans) != 3 {
		t.Fatalf("spans after Absorb = %d, want 3", len(v.Spans))
	}
	names := map[string]bool{}
	for _, s := range v.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"queue_wait", "backend_exec", "batch_assemble"} {
		if !names[want] {
			t.Fatalf("missing span %q after Absorb: %v", want, names)
		}
	}
}

func TestFinishFirstCallWins(t *testing.T) {
	tr := NewTrace("f", "")
	d1 := tr.Finish()
	time.Sleep(2 * time.Millisecond)
	d2 := tr.Finish()
	if d1 != d2 {
		t.Fatalf("second Finish changed duration: %v then %v", d1, d2)
	}
}

func TestTraceLogRing(t *testing.T) {
	l := NewTraceLog(4)
	for i := 0; i < 10; i++ {
		tr := NewTrace(fmt.Sprintf("t%d", i), "")
		tr.Finish()
		l.Add(tr)
	}
	if got := l.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	views := l.Snapshot(0)
	if len(views) != 4 {
		t.Fatalf("retained = %d, want 4", len(views))
	}
	// Newest first: t9, t8, t7, t6.
	for i, want := range []string{"t9", "t8", "t7", "t6"} {
		if views[i].Name != want {
			t.Fatalf("views[%d] = %q, want %q", i, views[i].Name, want)
		}
	}
	if got := len(l.Snapshot(2)); got != 2 {
		t.Fatalf("Snapshot(2) = %d entries", got)
	}
}

func TestTraceLogNilAndConcurrent(t *testing.T) {
	var nilLog *TraceLog
	nilLog.Add(NewTrace("x", ""))
	if nilLog.Total() != 0 || nilLog.Snapshot(5) != nil {
		t.Fatal("nil TraceLog must no-op")
	}
	l := NewTraceLog(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				l.Add(NewTrace("c", ""))
				l.Snapshot(3)
			}
		}()
	}
	wg.Wait()
	if got := l.Total(); got != 200 {
		t.Fatalf("Total = %d, want 200", got)
	}
}
