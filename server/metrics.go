package server

import (
	"io"
	"strconv"
	"time"

	"genasm/internal/obs"

	"genasm/server/jobs"
)

// batchBuckets are the upper bounds of the batch-size histogram buckets
// (cumulative, Prometheus-style; the implicit last bucket is +Inf).
var batchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Metrics aggregates the server's operational counters, gauges and
// stage-latency histograms on an obs.Registry, so one instrument feeds
// both the JSON snapshot (/metrics) and the Prometheus text exposition
// (/metrics?format=prometheus). All fields are safe for concurrent use.
//
// Latencies are fixed-bucket cumulative histograms, not a sliding
// window: bucket counts only ever grow, so consecutive scrapes subtract
// cleanly and percentiles come from in-bucket interpolation instead of
// a truncating sample index.
type Metrics struct {
	start   time.Time
	backend string
	reg     *obs.Registry

	requests     *obs.Counter // HTTP requests accepted (any endpoint)
	requestErrs  *obs.Counter // HTTP requests answered with a 4xx/5xx
	pairsIn      *obs.Counter // alignment pairs admitted to the scheduler
	pairsDone    *obs.Counter // alignment pairs completed by a backend batch
	rejected     *obs.Counter // submissions refused by admission control (429)
	batches      *obs.Counter // backend batches executed
	batchPairs   *obs.Counter // total pairs across executed batches
	batchErrs    *obs.Counter // backend batches that failed
	queueDepth   *obs.Gauge   // pairs queued or in flight right now
	cacheHits    *obs.Counter
	cacheMisses  *obs.Counter
	refsLoaded   *obs.Gauge   // references currently registered
	readsMapped  *obs.Counter // map-align reads with >= 1 candidate location
	readsNoCands *obs.Counter // map-align reads with no candidate location

	batchSize   *obs.Histogram // pairs per executed batch
	queueWait   *obs.Histogram // seconds a submission waited to be claimed
	backendExec *obs.Histogram // seconds one Engine.AlignBatch call took
	e2e         *obs.Histogram // seconds per HTTP request, handler-to-handler
}

// NewMetrics returns a Metrics clock-started now, labeled with the
// engine's backend name (e.g. "cpu", "gpu") — the label
// rides on every Prometheus series.
func NewMetrics(backend string) *Metrics {
	reg := obs.NewRegistry(obs.String("backend", backend))
	m := &Metrics{
		start:   time.Now(),
		backend: backend,
		reg:     reg,

		requests:     reg.Counter("genasm_requests_total", "HTTP requests accepted (any endpoint)."),
		requestErrs:  reg.Counter("genasm_request_errors_total", "HTTP requests answered with a 4xx or 5xx status."),
		pairsIn:      reg.Counter("genasm_pairs_enqueued_total", "Alignment pairs admitted to the scheduler."),
		pairsDone:    reg.Counter("genasm_pairs_done_total", "Alignment pairs completed by a backend batch."),
		rejected:     reg.Counter("genasm_rejected_total", "Submissions refused by admission control (429)."),
		batches:      reg.Counter("genasm_batches_total", "Backend batches executed."),
		batchPairs:   reg.Counter("genasm_batch_pairs_total", "Total pairs across executed batches."),
		batchErrs:    reg.Counter("genasm_batch_errors_total", "Backend batches that failed."),
		queueDepth:   reg.Gauge("genasm_queue_depth", "Pairs queued or in flight right now."),
		cacheHits:    reg.Counter("genasm_cache_hits_total", "Result-cache hits."),
		cacheMisses:  reg.Counter("genasm_cache_misses_total", "Result-cache misses."),
		refsLoaded:   reg.Gauge("genasm_refs_loaded", "References currently registered."),
		readsMapped:  reg.Counter("genasm_reads_mapped_total", "Map-align reads with at least one candidate location."),
		readsNoCands: reg.Counter("genasm_reads_unmapped_total", "Map-align reads with no candidate location."),

		batchSize: reg.Histogram("genasm_batch_size_pairs",
			"Pairs per executed backend batch.", batchBuckets),
		queueWait: reg.Histogram("genasm_queue_wait_seconds",
			"Time a submission spent waiting in the scheduler queue before its batch was claimed.",
			obs.DefaultLatencyBuckets),
		backendExec: reg.Histogram("genasm_backend_exec_seconds",
			"Wall time of one backend AlignBatch call.", obs.DefaultLatencyBuckets),
		e2e: reg.Histogram("genasm_e2e_latency_seconds",
			"End-to-end HTTP request latency.", obs.DefaultLatencyBuckets),
	}
	reg.GaugeFunc("genasm_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(m.start).Seconds() })
	return m
}

// Registry exposes the underlying metric registry so the server can
// hang scrape-time metrics (cache size, backend stats, jobs lane) onto
// the same exposition.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// WritePrometheus renders every metric in the Prometheus text
// exposition format.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	return obs.WritePrometheus(w, m.reg)
}

func (m *Metrics) observeBatch(pairs int, execDur time.Duration) {
	m.batches.Add(1)
	m.batchPairs.Add(int64(pairs))
	m.batchSize.Observe(float64(pairs))
	m.backendExec.Observe(execDur.Seconds())
}

func (m *Metrics) observeQueueWait(d time.Duration) { m.queueWait.Observe(d.Seconds()) }

func (m *Metrics) observeRequest(d time.Duration) { m.e2e.Observe(d.Seconds()) }

// quantilesMS renders a histogram's p50/p90/p99 in milliseconds.
func quantilesMS(h *obs.Histogram) (p50, p90, p99 float64) {
	const ms = 1000
	return h.Quantile(0.50) * ms, h.Quantile(0.90) * ms, h.Quantile(0.99) * ms
}

// Snapshot returns the current metrics as a JSON-encodable map.
func (m *Metrics) Snapshot() map[string]any {
	hist := make(map[string]int64, len(batchBuckets)+1)
	cum := m.batchSize.Cumulative()
	for i, upper := range batchBuckets {
		hist[strconv.Itoa(int(upper))] = int64(cum[i])
	}
	hist["+Inf"] = int64(cum[len(cum)-1])

	p50, p90, p99 := quantilesMS(m.e2e)
	qw50, qw90, qw99 := quantilesMS(m.queueWait)
	be50, be90, be99 := quantilesMS(m.backendExec)
	batches := m.batches.Load()
	meanBatch := 0.0
	if batches > 0 {
		meanBatch = float64(m.batchPairs.Load()) / float64(batches)
	}
	return map[string]any{
		"backend":              m.backend,
		"uptime_seconds":       time.Since(m.start).Seconds(),
		"requests_total":       m.requests.Load(),
		"request_errors_total": m.requestErrs.Load(),
		"pairs_enqueued_total": m.pairsIn.Load(),
		"pairs_done_total":     m.pairsDone.Load(),
		"rejected_total":       m.rejected.Load(),
		"queue_depth":          m.queueDepth.Load(),
		"batches_total":        batches,
		"batch_errors_total":   m.batchErrs.Load(),
		"batch_size_mean":      meanBatch,
		"batch_size_hist":      hist,
		"latency_ms_p50":       p50,
		"latency_ms_p90":       p90,
		"latency_ms_p99":       p99,
		"queue_wait_ms_p50":    qw50,
		"queue_wait_ms_p90":    qw90,
		"queue_wait_ms_p99":    qw99,
		"backend_exec_ms_p50":  be50,
		"backend_exec_ms_p90":  be90,
		"backend_exec_ms_p99":  be99,
		"cache_hits_total":     m.cacheHits.Load(),
		"cache_misses_total":   m.cacheMisses.Load(),
		"refs_loaded":          m.refsLoaded.Load(),
		"reads_mapped_total":   m.readsMapped.Load(),
		"reads_unmapped_total": m.readsNoCands.Load(),
	}
}

// Scrape is the typed client-side view of the /metrics JSON snapshot:
// the fields a load client or monitoring tool needs, with json tags
// matching Snapshot's keys so an HTTP scrape unmarshals directly into
// it. Exported for internal/loadgen and cmd/genasm-loadgen; the
// Snapshot↔Scrape field agreement is pinned by
// TestSnapshotScrapeRoundTrip, so the JSON schema cannot drift away
// from its typed consumers unnoticed.
type Scrape struct {
	RequestsTotal      int64   `json:"requests_total"`
	RequestErrorsTotal int64   `json:"request_errors_total"`
	RejectedTotal      int64   `json:"rejected_total"`
	PairsEnqueuedTotal int64   `json:"pairs_enqueued_total"`
	PairsDoneTotal     int64   `json:"pairs_done_total"`
	BatchesTotal       int64   `json:"batches_total"`
	BatchSizeMean      float64 `json:"batch_size_mean"`
	QueueDepth         int64   `json:"queue_depth"`
	CacheHitsTotal     int64   `json:"cache_hits_total"`
	CacheMissesTotal   int64   `json:"cache_misses_total"`
	ReadsMappedTotal   int64   `json:"reads_mapped_total"`
	ReadsUnmappedTotal int64   `json:"reads_unmapped_total"`
	LatencyMSP50       float64 `json:"latency_ms_p50"`
	LatencyMSP99       float64 `json:"latency_ms_p99"`
}

// Scrape returns the current counters as the typed scrape view — the
// in-process equivalent of unmarshaling GET /metrics.
func (m *Metrics) Scrape() Scrape {
	p50, _, p99 := quantilesMS(m.e2e)
	batches := m.batches.Load()
	meanBatch := 0.0
	if batches > 0 {
		meanBatch = float64(m.batchPairs.Load()) / float64(batches)
	}
	return Scrape{
		RequestsTotal:      m.requests.Load(),
		RequestErrorsTotal: m.requestErrs.Load(),
		RejectedTotal:      m.rejected.Load(),
		PairsEnqueuedTotal: m.pairsIn.Load(),
		PairsDoneTotal:     m.pairsDone.Load(),
		BatchesTotal:       batches,
		BatchSizeMean:      meanBatch,
		QueueDepth:         m.queueDepth.Load(),
		CacheHitsTotal:     m.cacheHits.Load(),
		CacheMissesTotal:   m.cacheMisses.Load(),
		ReadsMappedTotal:   m.readsMapped.Load(),
		ReadsUnmappedTotal: m.readsNoCands.Load(),
		LatencyMSP50:       p50,
		LatencyMSP99:       p99,
	}
}

// Sub returns the counter-wise difference s - prev; point-in-time
// fields (queue depth, batch-size mean, latency percentiles) keep s's
// value. Load clients use it to attribute /metrics movement to one
// measurement window.
func (s Scrape) Sub(prev Scrape) Scrape {
	s.RequestsTotal -= prev.RequestsTotal
	s.RequestErrorsTotal -= prev.RequestErrorsTotal
	s.RejectedTotal -= prev.RejectedTotal
	s.PairsEnqueuedTotal -= prev.PairsEnqueuedTotal
	s.PairsDoneTotal -= prev.PairsDoneTotal
	s.BatchesTotal -= prev.BatchesTotal
	s.CacheHitsTotal -= prev.CacheHitsTotal
	s.CacheMissesTotal -= prev.CacheMissesTotal
	s.ReadsMappedTotal -= prev.ReadsMappedTotal
	s.ReadsUnmappedTotal -= prev.ReadsUnmappedTotal
	return s
}

// addJobsMetrics folds the bulk lane's counters into a /metrics
// snapshot as jobs_* fields (present only when the lane is enabled).
func addJobsMetrics(snap map[string]any, st jobs.Stats) {
	snap["jobs_submitted_total"] = st.Submitted
	snap["jobs_done_total"] = st.Done
	snap["jobs_failed_total"] = st.Failed
	snap["jobs_canceled_total"] = st.Canceled
	snap["jobs_swept_total"] = st.Swept
	snap["jobs_queued"] = st.Queued
	snap["jobs_running"] = st.Running
	snap["jobs_reads_done_total"] = st.ReadsDone
	snap["jobs_reads_failed_total"] = st.ReadsFailed
	snap["jobs_result_bytes_total"] = st.ResultBytes
}
