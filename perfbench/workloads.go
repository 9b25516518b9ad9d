package main

import "context"

// workload is one named set of inputs and the way the benchmark drives
// them. Every workload reports every end-to-end metric:
//
//   - setup_s: median over setupRepeats set-ups of index building,
//     engine or server construction and reference registration (input
//     generation excluded).
//   - heap_live_mb: live heap after set-up and a forced collection.
//   - bases_per_s: query bases completed per second. Offline, the median
//     over repeats of the timed batch call; serving, the median over
//     closed-loop slices with one connection per processor.
//   - p50_ms.low / p99_ms.low and p50_ms.high / p99_ms.high: latency of
//     one operation. Offline, one read (or pair) per call with one caller
//     (low) and one caller per processor (high), each item's latency its
//     median over the rounds; serving, the median over open-loop windows
//     at the low and high rate, timed from each request's intended send.
//   - mapped_correct_frac: share of reads whose primary placement
//     overlaps the locus they were simulated from.
//
// Failed operations and wrong outputs are the result line's failed and
// correct fields.
type workload struct {
	name, why string
	run       func(ctx context.Context, b *bench) error
}

var workloads = []workload{
	{"longread-map",
		"PacBio-like 10 kb reads at 10% error through Engine.MapAlign to SAM on a 16 Mb genome whose index exceeds the LLC: locate and kernel dominate",
		runLongReadMap},
	{"pairs-align",
		"Engine.AlignBatch on every candidate region of 10 kb reads, located during set-up: the core kernel does nearly all timed work, minimap none",
		runPairsAlign},
	{"serve-short",
		"150 bp reads at 1% error over HTTP to an in-process server, open loop at two fixed rates: per-request serving work dominates, the kernel does little",
		runServeShort},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}
