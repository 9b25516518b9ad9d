package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"genasm/server"
)

func TestSummarizeReportsOnlyPercentilesWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: summarize must sort
		}
		return xs
	}
	cases := []struct {
		n    int
		want map[float64]float64
	}{
		{19, map[float64]float64{}},
		{20, map[float64]float64{50: 10}},
		{100, map[float64]float64{50: 50, 90: 90}},
		{999, map[float64]float64{50: 500, 90: 900}},
		{1000, map[float64]float64{50: 500, 90: 900, 99: 990}},
	}
	for _, c := range cases {
		got := summarize(seq(c.n))
		if got.N != c.n || len(got.P) != len(c.want) {
			t.Errorf("n=%d: got %v, want %v", c.n, got.P, c.want)
			continue
		}
		for p, v := range c.want {
			if got.P[p] != v {
				t.Errorf("n=%d: p%g = %v, want %v", c.n, p, got.P[p], v)
			}
		}
	}
	// A failed operation is an infinite latency: it lands in the tail.
	xs := seq(1000)
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	if p99 := summarize(xs).P[99]; !math.IsInf(p99, 1) {
		t.Errorf("p99 with 11 failures = %v, want +Inf", p99)
	}
}

func TestOpenLoopTimesFromIntendedSend(t *testing.T) {
	const (
		rate  = 1000.0 // one send per millisecond
		n     = 40
		stall = 30 * time.Millisecond
	)
	res := openLoop(context.Background(), rate, n, 1, func(ctx context.Context, k int, due time.Time) error {
		if k == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if res.Failed != 0 || len(res.LatencyMS) != n {
		t.Fatalf("failed=%d samples=%d", res.Failed, len(res.LatencyMS))
	}
	// Send 1 was due 1 ms after send 0 but could only leave when the stall
	// ended: its latency counts the wait, not just its own instant reply.
	if got, min := res.LatencyMS[1], durMS(stall)-2; got < min {
		t.Errorf("latency of the send queued behind the stall = %.2f ms, want >= %.2f", got, min)
	}
	// Every send due during the stall left late.
	if want := int(durMS(stall)) - 5; res.Late < want {
		t.Errorf("late sends = %d, want >= %d", res.Late, want)
	}
	if res.BacklogMS >= 0 {
		t.Errorf("backlog = %.2f ms; the generator caught up, so the last sends should leave earlier than the first", res.BacklogMS)
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	res := openLoop(context.Background(), 5000, 20, 2, func(ctx context.Context, k int, due time.Time) error {
		if k%5 == 0 {
			return context.DeadlineExceeded
		}
		return nil
	})
	if res.Failed != 4 {
		t.Errorf("failed = %d, want 4", res.Failed)
	}
	for k, l := range res.LatencyMS {
		if (k%5 == 0) != math.IsInf(l, 1) {
			t.Errorf("send %d: latency %v", k, l)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 0, Parent: -1, Name: "read", Start: 0, End: 100},
		{Trace: 1, ID: 1, Parent: 0, Name: "locate", Start: 10, End: 30},
		{Trace: 1, ID: 2, Parent: 0, Name: "align", Start: 20, End: 50},  // overlaps locate
		{Trace: 1, ID: 3, Parent: 0, Name: "align", Start: 90, End: 120}, // outlives its parent
		{Trace: 1, ID: 4, Parent: 2, Name: "render", Start: 40, End: 45},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"read":   {Count: 1, Total: 100, Self: 100 - 40 - 10},
		"locate": {Count: 1, Total: 20, Self: 20},
		"align":  {Count: 2, Total: 60, Self: 25 + 30},
		"render": {Count: 1, Total: 5, Self: 5},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: %+v, want %+v", name, got[name], w)
		}
	}
}

func TestRecorderIsNoOpWhenUntraced(t *testing.T) {
	var r *recorder
	id := r.begin(r.newTrace(), -1, "x")
	r.end(id)
	r.add(0, -1, "y", time.Now(), time.Millisecond)
	if id != -1 || r.snapshot() != nil {
		t.Fatal("nil recorder recorded a span")
	}
}

func TestServerRatiosUseOnlyTheWindowsCounterDeltas(t *testing.T) {
	// Since boot the server batched well (mean 8) and its latency
	// percentiles are unrelated to the window; inside the window it ran
	// 10 single-pair batches, half of its lookups hit, and one request
	// in ten was refused.
	before := server.Scrape{
		RequestsTotal: 1000, PairsDoneTotal: 8000, BatchesTotal: 1000,
		CacheHitsTotal: 0, CacheMissesTotal: 8000, BatchSizeMean: 8, LatencyMSP99: 50,
	}
	after := server.Scrape{
		RequestsTotal: 1010, RejectedTotal: 1, PairsDoneTotal: 8010, BatchesTotal: 1010,
		CacheHitsTotal: 10, CacheMissesTotal: 8010, BatchSizeMean: 7.93, LatencyMSP99: 60,
	}
	w := countersOf(after).sub(countersOf(before))
	if got := w.batchPairsMean(); got != 1 {
		t.Errorf("window batch mean = %v, want 1 (the since-boot mean is %v)", got, after.BatchSizeMean)
	}
	if got := w.cacheHitFrac(); got != 0.5 {
		t.Errorf("window cache hit fraction = %v, want 0.5", got)
	}
	if got := w.rejectedFrac(); got != 0.1 {
		t.Errorf("window rejected fraction = %v, want 0.1", got)
	}
	var empty serverCounters
	if empty.batchPairsMean() != 0 || empty.cacheHitFrac() != 0 {
		t.Error("an empty window must read 0, not NaN")
	}
}

func TestCheckSAMRecord(t *testing.T) {
	ref := []byte("ACGTACGTACGTTTTT")
	ok := "r1\t0\tchr1\t3\t60\t2=1X3=1I2=1D2=\t*\t0\t0\tGTTCGTAACTT\t*\tNM:i:3\tAS:i:1"
	if err := checkSAMRecord(ok, ref); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	bad := map[string]string{
		"NM disagrees":        "r1\t0\tchr1\t3\t60\t2=1X3=1I2=1D2=\t*\t0\t0\tGTTCGTAACTT\t*\tNM:i:2\tAS:i:1",
		"match claims a diff": "r1\t0\tchr1\t3\t60\t3=3=1I2=1D2=\t*\t0\t0\tGTTCGTAACTT\t*\tNM:i:2\tAS:i:1",
		"query length":        "r1\t0\tchr1\t3\t60\t2=1X3=1I2=1D2=\t*\t0\t0\tGTTCGTAACTTA\t*\tNM:i:3\tAS:i:1",
	}
	for name, line := range bad {
		if checkSAMRecord(line, ref) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := checkSAMRecord("r2\t4\t*\t0\t0\t*\t*\t0\t0\tACGT\t*", ref); err != nil {
		t.Errorf("unmapped record rejected: %v", err)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the runs are
// judged by, in step with what the program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q/%q, program has %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: %+v, program has %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, name := range selfSpans {
		found := false
		for _, d := range perLayer {
			found = found || d.Name == "self_us."+name
		}
		if !found {
			t.Errorf("span %s has no self_us metric", name)
		}
	}
}
