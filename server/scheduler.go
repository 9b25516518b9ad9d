package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"genasm"
	"genasm/internal/obs"
)

// Scheduler errors surfaced to callers (the HTTP layer maps ErrQueueFull
// to 429 Too Many Requests and ErrClosed to 503 Service Unavailable).
var (
	ErrQueueFull = errors.New("server: scheduler queue full")
	ErrClosed    = errors.New("server: scheduler closed")
)

// SchedulerConfig tunes the dynamic batcher.
type SchedulerConfig struct {
	// MaxBatch flushes a batch as soon as this many pairs are pending.
	// The default is the engine backend's Capabilities().PreferredBatch
	// (a few pairs per CPU worker, one wave of resident blocks on the
	// GPU; 64 if the backend states no preference). Bigger batches keep
	// the backend saturated — the paper's throughput lever — at the cost
	// of per-request latency.
	MaxBatch int
	// MaxDelay bounds how long the first pair of a batch may wait before
	// the batch is flushed regardless of size (default 2ms). This is the
	// latency ceiling the batcher adds on an idle server.
	MaxDelay time.Duration
	// MaxQueue bounds the pairs admitted but not yet completed (queued
	// plus in flight, default 4096). Beyond it Submit fails fast with
	// ErrQueueFull so callers can shed load instead of piling up.
	MaxQueue int
}

func (c *SchedulerConfig) fillDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4096
	}
}

// schedJob is one Submit call: its pairs travel through a backend batch
// together with other jobs' pairs, and its results come back on done.
// trace is the submitter's request trace (nil when the caller's context
// carries none): the executor records the job's queue wait on it and
// splices in the shared batch spans before signalling done.
type schedJob struct {
	pairs    []genasm.Pair
	done     chan schedResult // buffered(1): the executor never blocks
	enqueued time.Time
	trace    *obs.Trace
}

type schedResult struct {
	results []genasm.Result
	err     error
}

// Scheduler coalesces many small concurrent alignment requests into the
// large backend batches the CPU/GPU backends are fast at. Requests are
// admitted under a bounded queue, gathered until either MaxBatch pairs
// are pending or the oldest has waited MaxDelay, then executed as one
// Engine.AlignBatch call; each caller gets back exactly its slice of the
// batch. Safe for concurrent use.
type Scheduler struct {
	eng *genasm.Engine
	cfg SchedulerConfig
	m   *Metrics

	mu        sync.Mutex
	pending   []*schedJob
	nPending  int // pairs in pending
	nInFlight int // pairs dispatched, not yet completed
	timer     *time.Timer
	timerGen  uint64 // bumped whenever a batch is claimed; stale timer callbacks no-op
	closed    bool
	wg        sync.WaitGroup // in-flight batch executors
}

// NewScheduler wraps eng with a dynamic batcher. Metrics may be nil.
func NewScheduler(eng *genasm.Engine, cfg SchedulerConfig, m *Metrics) *Scheduler {
	if cfg.MaxBatch <= 0 {
		// Size the flush threshold to the backend's stated appetite
		// instead of special-casing backend kinds.
		cfg.MaxBatch = eng.Capabilities().PreferredBatch
	}
	cfg.fillDefaults()
	if m == nil {
		m = NewMetrics(eng.BackendName())
	}
	return &Scheduler{eng: eng, cfg: cfg, m: m}
}

// Metrics returns the scheduler's metrics sink.
func (s *Scheduler) Metrics() *Metrics { return s.m }

// Submit admits pairs, waits for the batch containing them to execute,
// and returns results index-aligned with pairs. It fails fast with
// ErrQueueFull when admission would exceed MaxQueue and with ErrClosed
// after Close. A ctx cancellation abandons the wait (the batch still
// runs; the caller's results are discarded). A submission larger than
// the queue bound — which could never be admitted whole — is split into
// sequential half-queue sub-submissions, so a single big request can
// make progress instead of being rejected forever.
func (s *Scheduler) Submit(ctx context.Context, pairs []genasm.Pair) ([]genasm.Result, error) {
	if len(pairs) > s.cfg.MaxQueue {
		chunk := max(1, s.cfg.MaxQueue/2)
		out := make([]genasm.Result, 0, len(pairs))
		for off := 0; off < len(pairs); off += chunk {
			res, err := s.submit(ctx, pairs[off:min(off+chunk, len(pairs))])
			if err != nil {
				return nil, err
			}
			out = append(out, res...)
		}
		return out, nil
	}
	return s.submit(ctx, pairs)
}

func (s *Scheduler) submit(ctx context.Context, pairs []genasm.Pair) ([]genasm.Result, error) {
	if len(pairs) == 0 {
		return []genasm.Result{}, ctx.Err()
	}
	j := &schedJob{
		pairs:    pairs,
		done:     make(chan schedResult, 1),
		enqueued: time.Now(),
		trace:    obs.FromContext(ctx),
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.nPending+s.nInFlight+len(pairs) > s.cfg.MaxQueue {
		s.mu.Unlock()
		s.m.rejected.Add(1)
		return nil, ErrQueueFull
	}
	s.pending = append(s.pending, j)
	s.nPending += len(pairs)
	s.m.pairsIn.Add(int64(len(pairs)))
	s.m.queueDepth.Store(int64(s.nPending + s.nInFlight))
	if s.nPending >= s.cfg.MaxBatch {
		batch := s.takeBatchLocked()
		s.mu.Unlock()
		s.dispatch(batch)
	} else {
		if s.timer == nil {
			gen := s.timerGen
			s.timer = time.AfterFunc(s.cfg.MaxDelay, func() { s.flushOnDeadline(gen) })
		}
		s.mu.Unlock()
	}

	select {
	case r := <-j.done:
		return r.results, r.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// takeBatchLocked claims every pending job as one batch and resets the
// accumulator. Caller holds s.mu; the wg increment for the batch's
// executor happens here, under the lock, so a concurrent Close cannot
// observe a zero counter between the claim and the dispatch. Bumping
// timerGen invalidates any MaxDelay callback already in flight, so a
// stale timer cannot prematurely flush the next batch or orphan its
// live timer.
func (s *Scheduler) takeBatchLocked() []*schedJob {
	batch := s.pending
	s.pending = nil
	s.nInFlight += s.nPending
	s.nPending = 0
	s.timerGen++
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	if len(batch) > 0 {
		s.wg.Add(1)
	}
	return batch
}

// flushOnDeadline is the MaxDelay timer callback: whatever is pending
// ships now. gen identifies the batch generation the timer was armed
// for; if a size-triggered flush (or Close) claimed that batch first,
// the callback is stale and must not touch the newer accumulation.
func (s *Scheduler) flushOnDeadline(gen uint64) {
	s.mu.Lock()
	if gen != s.timerGen {
		s.mu.Unlock()
		return
	}
	s.timer = nil
	if len(s.pending) == 0 {
		s.mu.Unlock()
		return
	}
	batch := s.takeBatchLocked()
	s.mu.Unlock()
	s.dispatch(batch)
}

// dispatch executes one batch asynchronously so Submit returns to its
// select immediately and new arrivals keep coalescing meanwhile.
func (s *Scheduler) dispatch(batch []*schedJob) {
	if len(batch) == 0 {
		return
	}
	go s.runBatch(batch)
}

func (s *Scheduler) runBatch(batch []*schedJob) {
	defer s.wg.Done()
	claimed := time.Now()
	n := 0
	traced := false
	for _, j := range batch {
		n += len(j.pairs)
		wait := claimed.Sub(j.enqueued)
		s.m.observeQueueWait(wait)
		j.trace.Record("queue_wait", j.enqueued, wait, obs.Int("pairs", len(j.pairs)))
		traced = traced || j.trace != nil
	}
	// The batch serves many requests at once, so its shared stages
	// (assembly, backend execution) record onto one batch trace that is
	// spliced into every co-batched request's trace afterwards. Untraced
	// batches skip the bookkeeping entirely.
	var btr *obs.Trace
	if traced {
		btr = obs.NewTrace("batch", "")
	}
	all := make([]genasm.Pair, 0, n)
	for _, j := range batch {
		all = append(all, j.pairs...)
	}
	btr.Record("batch_assemble", claimed, time.Since(claimed),
		obs.Int("pairs", n), obs.Int("requests", len(batch)))
	// The batch runs under the scheduler's lifetime, not any single
	// caller's context: one impatient client must not cancel its
	// co-batched neighbours.
	//lint:allow ctxflow a coalesced batch must outlive every submitter's ctx; Close drains via wg, not cancellation
	ctx := context.Background()
	if btr != nil {
		ctx = obs.WithTrace(ctx, btr)
	}
	execStart := time.Now()
	results, err := s.eng.AlignBatch(ctx, all)
	execDur := time.Since(execStart)
	btr.Record("backend_exec", execStart, execDur,
		obs.String("backend", s.eng.BackendName()), obs.Int("pairs", n))
	s.m.observeBatch(n, execDur)
	if err != nil {
		s.m.batchErrs.Add(1)
		err = fmt.Errorf("server: batch of %d pairs: %w", n, err)
	} else {
		s.m.pairsDone.Add(int64(n))
	}
	off := 0
	for _, j := range batch {
		// Splice the shared batch spans in before signalling done, so a
		// submitter that resumes immediately sees a complete trace.
		j.trace.Absorb(btr)
		if err != nil {
			j.done <- schedResult{err: err}
		} else {
			j.done <- schedResult{results: results[off : off+len(j.pairs)]}
		}
		off += len(j.pairs)
	}
	s.mu.Lock()
	s.nInFlight -= n
	s.m.queueDepth.Store(int64(s.nPending + s.nInFlight))
	s.mu.Unlock()
}

// Close stops admission, flushes anything pending, and waits for
// in-flight batches to finish. Subsequent Submits return ErrClosed.
// Close is idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	batch := s.takeBatchLocked()
	s.mu.Unlock()
	s.dispatch(batch)
	s.wg.Wait()
}
