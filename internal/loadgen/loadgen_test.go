package loadgen

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"genasm/server"
)

// TestPlanDeterministic pins the harness's central guarantee: the same
// (scenario, seed, genome length) builds the identical plan byte for
// byte, and a different seed builds a different one.
func TestPlanDeterministic(t *testing.T) {
	for _, scenario := range Scenarios() {
		scenario := scenario
		t.Run(scenario, func(t *testing.T) {
			cfg := Config{Scenario: scenario, Seed: 7, GenomeLen: 40_000}
			a, err := BuildPlan(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := BuildPlan(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatal("same seed built different plans")
			}
			if len(a.Requests) == 0 {
				t.Fatal("plan has no requests")
			}
			if a.Rate <= 0 || a.Concurrency <= 0 {
				t.Fatalf("plan defaults missing: rate %v concurrency %d", a.Rate, a.Concurrency)
			}
			cfg.Seed = 8
			c, err := BuildPlan(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(a.Requests, c.Requests) {
				t.Fatal("different seeds built identical request sequences")
			}
		})
	}
}

func TestBuildPlanUnknownScenario(t *testing.T) {
	if _, err := BuildPlan(Config{Scenario: "nope", GenomeLen: 10_000}); err == nil {
		t.Fatal("unknown scenario did not error")
	}
}

// smokeServer boots an in-process server for loadgen to drive.
func smokeServer(t *testing.T, cfg server.Config) *httptest.Server {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

func smokeRun(t *testing.T, ts *httptest.Server, scenario string) *Result {
	t.Helper()
	res, err := Run(context.Background(), Config{
		BaseURL:   ts.URL,
		Scenario:  scenario,
		Seed:      7,
		Warmup:    400 * time.Millisecond,
		Duration:  1500 * time.Millisecond,
		GenomeLen: 40_000,
		RefName:   "loadgen",
	})
	if err != nil {
		t.Fatalf("%s: %v", scenario, err)
	}
	return res
}

// TestSmokeBaseline runs the baseline scenario against an in-process
// server: clean traffic, measured latency, a server-side counter delta.
func TestSmokeBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke test")
	}
	ts := smokeServer(t, server.Config{})
	res := smokeRun(t, ts, ScenarioBaseline)
	if res.Requests == 0 {
		t.Fatal("baseline measured no requests")
	}
	if res.Errors != 0 {
		t.Fatalf("baseline saw %d errors (last: %s)", res.Errors, res.LastError)
	}
	if res.P50ms <= 0 || res.P99ms < res.P50ms {
		t.Fatalf("implausible percentiles: p50 %v p99 %v", res.P50ms, res.P99ms)
	}
	if res.ServerDelta == nil {
		t.Fatal("no server-side scrape delta")
	}
	if res.ServerDelta.PairsDoneTotal == 0 {
		t.Fatalf("server delta shows no pairs done: %+v", *res.ServerDelta)
	}
}

// TestSmokeStressBackpressure pins that the stress scenario actually
// reaches the bounded-queue admission path: with a tiny queue the server
// must shed with 429s, and the client must count them as backpressure,
// not errors.
func TestSmokeStressBackpressure(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke test")
	}
	ts := smokeServer(t, server.Config{
		// Disable the result cache so every request reaches the
		// scheduler's admission check — the stress cycle repeats its
		// pairs, and cache hits would bypass the queue entirely.
		CacheSize: -1,
		Scheduler: server.SchedulerConfig{MaxQueue: 2, MaxBatch: 4, MaxDelay: 5 * time.Millisecond},
	})
	res := smokeRun(t, ts, ScenarioStress)
	if res.Requests == 0 {
		t.Fatal("stress measured no requests")
	}
	if res.Status429 == 0 {
		t.Fatalf("stress against MaxQueue=2 produced no 429s (statuses: %v)", res.StatusCounts)
	}
	if res.Errors != 0 {
		t.Fatalf("429s leaked into errors: %d (last: %s)", res.Errors, res.LastError)
	}
	if res.ServerDelta != nil && res.ServerDelta.RejectedTotal == 0 {
		t.Fatalf("client saw 429s but server rejected_total did not move: %+v", *res.ServerDelta)
	}
}

// TestSmokeMixedCacheIdentity pins bit-identical cache-hit responses:
// the mixed scenario's repeated-key traffic is primed during warmup, so
// every measured response under a cache key must be byte-equal.
func TestSmokeMixedCacheIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("load smoke test")
	}
	ts := smokeServer(t, server.Config{})
	res := smokeRun(t, ts, ScenarioMixed)
	if res.Errors != 0 {
		t.Fatalf("mixed saw %d errors (last: %s)", res.Errors, res.LastError)
	}
	if res.CacheChecked == 0 {
		t.Fatal("mixed checked no cache-keyed responses")
	}
	if res.CacheMismatches != 0 {
		t.Fatalf("%d of %d cache-keyed responses diverged (last: %s)",
			res.CacheMismatches, res.CacheChecked, res.LastError)
	}
	if res.ServerDelta != nil && res.ServerDelta.CacheHitsTotal == 0 {
		t.Fatalf("mixed produced no server-side cache hits: %+v", *res.ServerDelta)
	}
}

// TestRunCancel pins that ctx cancellation aborts a run promptly.
func TestRunCancel(t *testing.T) {
	ts := smokeServer(t, server.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Config{BaseURL: ts.URL, Scenario: ScenarioBaseline, GenomeLen: 10_000}); err == nil {
		t.Fatal("cancelled run returned no error")
	}
}

func TestPercentile(t *testing.T) {
	samples := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.50, 5}, {0.95, 10}, {0.99, 10}, {0.10, 1}} {
		if got := percentile(samples, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
}

// TestWindowDeltaBatchMeanWithoutBatches: a window in which the server
// ran no batch reports a mean of 0, not the since-boot mean.
func TestWindowDeltaBatchMeanWithoutBatches(t *testing.T) {
	before := server.Scrape{RequestsTotal: 100, PairsDoneTotal: 140, BatchesTotal: 100, BatchSizeMean: 1.4}
	after := server.Scrape{RequestsTotal: 150, PairsDoneTotal: 140, BatchesTotal: 100, CacheHitsTotal: 50, BatchSizeMean: 1.4}
	d := windowDelta(before, after)
	if d.BatchesTotal != 0 || d.BatchSizeMean != 0 {
		t.Fatalf("window with no batches: batches %d, mean %v; want 0, 0", d.BatchesTotal, d.BatchSizeMean)
	}
	if d.RequestsTotal != 50 || d.CacheHitsTotal != 50 {
		t.Fatalf("counter deltas %+v", d)
	}
}

// TestWindowDeltaBatchMeanFromWindowCounters: the mean is the window's
// pairs done per batch, whatever the since-boot mean was.
func TestWindowDeltaBatchMeanFromWindowCounters(t *testing.T) {
	before := server.Scrape{PairsDoneTotal: 8000, BatchesTotal: 1000, BatchSizeMean: 8}
	after := server.Scrape{PairsDoneTotal: 8060, BatchesTotal: 1020, BatchSizeMean: 7.9}
	d := windowDelta(before, after)
	if d.PairsDoneTotal != 60 || d.BatchesTotal != 20 || d.BatchSizeMean != 3 {
		t.Fatalf("window delta: pairs %d, batches %d, mean %v; want 60, 20, 3",
			d.PairsDoneTotal, d.BatchesTotal, d.BatchSizeMean)
	}
}
