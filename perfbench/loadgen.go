package main

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// lateAfter is how far past its intended time a send may leave before it
// counts as late. Timer wake-ups on a machine with a spare processor land
// well within it, so a late send means the generator could not keep to
// its schedule.
const lateAfter = time.Millisecond

// openLoopResult is one fixed-rate phase.
type openLoopResult struct {
	// LatencyMS holds one sample per send, timed from the send's intended
	// time, so a stall also charges the sends it delayed; a failed send
	// is +Inf.
	LatencyMS []float64
	Late      int
	Failed    int
	// BacklogMS is how much later the last tenth of the sends left than
	// the first tenth: positive and growing when the system under test
	// falls behind the offered rate.
	BacklogMS float64
}

// spinWithin is how close to a send's due time the dispatcher stops
// sleeping and yields in a loop instead. An idle Go process on Linux
// wakes from a sleep up to a millisecond late (the network poller waits
// in whole milliseconds), and that delay would count as the system's
// latency.
const spinWithin = 2 * time.Millisecond

// openLoop offers n operations at a fixed rate (per second). Send k is
// due at start + k/rate whatever happened to the earlier ones. A
// dispatcher hands each send, on time, to one of conns workers, so at
// most conns are in flight and a send that finds every worker busy
// leaves late. Latency is measured from the due time, not the actual
// send, which is what keeps a stall from hiding the delay it imposes on
// the sends queued behind it.
func openLoop(ctx context.Context, rate float64, n, conns int, send func(ctx context.Context, k int, due time.Time) error) openLoopResult {
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	dueAt := func(k int) time.Time { return start.Add(time.Duration(k) * interval) }
	lat := make([]float64, n)
	lateness := make([]time.Duration, n)
	failed := make([]bool, n)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				due := dueAt(k)
				lateness[k] = time.Since(due)
				if err := send(ctx, k, due); err != nil {
					lat[k], failed[k] = math.Inf(1), true
					continue
				}
				lat[k] = durMS(time.Since(due))
			}
		}()
	}
	for k := 0; k < n; k++ {
		waitUntil(ctx, dueAt(k))
		if ctx.Err() != nil {
			for ; k < n; k++ {
				lat[k], failed[k] = math.Inf(1), true
			}
			break
		}
		work <- k // blocks while every worker is busy: the send leaves late
	}
	close(work)
	wg.Wait()
	res := openLoopResult{LatencyMS: lat}
	for k := 0; k < n; k++ {
		if lateness[k] > lateAfter {
			res.Late++
		}
		if failed[k] {
			res.Failed++
		}
	}
	if tenth := n / 10; tenth > 0 {
		var first, last time.Duration
		for k := 0; k < tenth; k++ {
			first += lateness[k]
			last += lateness[n-1-k]
		}
		res.BacklogMS = durMS(last-first) / float64(tenth)
	}
	return res
}

// waitUntil returns at t (or when ctx ends): it sleeps while t is far
// and yields the processor in a loop for the last spinWithin.
func waitUntil(ctx context.Context, t time.Time) {
	for ctx.Err() == nil {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > spinWithin:
			sleepCtx(ctx, d-spinWithin)
		default:
			runtime.Gosched()
		}
	}
}

// sleepCtx sleeps for d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// closedLoop keeps conns operations in flight back to back for d: each
// worker sends its next operation as soon as the previous one answers.
// send returns the work units (bases) an operation completed; the result
// is the work completed per second.
func closedLoop(ctx context.Context, d time.Duration, conns int, send func(ctx context.Context, k int) (int, error)) float64 {
	start := time.Now()
	var next, work atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(start) < d {
				n, err := send(ctx, int(next.Add(1)-1))
				if err == nil && time.Since(start) <= d {
					work.Add(int64(n))
				}
			}
		}()
	}
	wg.Wait()
	return float64(work.Load()) / d.Seconds()
}
