package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: with fewer, the value is one or two outliers.
const minBeyond = 10

// reportedPercentiles are the percentiles a latency summary may hold.
var reportedPercentiles = []float64{50, 90, 99, 99.9}

// latencySummary is a latency distribution as the benchmark reports it:
// the sample count and every percentile the count supports.
type latencySummary struct {
	N int
	P map[float64]float64
}

// summarize applies the percentile rule: a nearest-rank percentile is
// reported only when at least minBeyond samples lie beyond it. Failed
// operations enter as +Inf, so they count as missing any latency limit.
func summarize(samples []float64) latencySummary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := latencySummary{N: len(s), P: make(map[float64]float64)}
	for _, p := range reportedPercentiles {
		rank := int(math.Ceil(p / 100 * float64(len(s))))
		if rank < 1 || len(s)-rank < minBeyond {
			continue
		}
		out.P[p] = s[rank-1]
	}
	return out
}

// median is the middle value (mean of the two middle ones for an even
// count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// liveHeapBytes forces a collection and returns the live heap.
func liveHeapBytes() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// runtimeSample reads the process counters a phase is charged with:
// bytes allocated, GC CPU and total CPU (runtime/metrics estimates).
type runtimeSample struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// sub is what the process spent between two readings.
func (s runtimeSample) sub(prev runtimeSample) runtimeSample {
	return runtimeSample{s.allocBytes - prev.allocBytes, s.gcCPU - prev.gcCPU, s.totalCPU - prev.totalCPU}
}

// add sums the costs of two phases.
func (s runtimeSample) add(o runtimeSample) runtimeSample {
	return runtimeSample{s.allocBytes + o.allocBytes, s.gcCPU + o.gcCPU, s.totalCPU + o.totalCPU}
}

// gcCPUFrac is the share of CPU time the garbage collector used.
func (s runtimeSample) gcCPUFrac() float64 {
	if s.totalCPU <= 0 {
		return 0
	}
	return s.gcCPU / s.totalCPU
}
