// Command perfbench is the repository benchmark: one command that runs a
// named workload through the public layers of the stack (genasm Engine
// and Mapper, internal/minimap, internal/core, internal/cigar,
// internal/samfmt and the server package), checks every output it
// produces, and prints its metrics.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last line of standard output is a JSON object
// holding every end-to-end metric; with --trace 1 it holds every
// per-layer metric, derived from spans the benchmark records around each
// public call, plus the tracing overhead. A human-readable report goes to
// standard error, and a JSON dump (environment, metrics, spans) to the
// -out directory. The exit code is non-zero when any output is wrong.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricDef names one reported metric. The two tables below are the
// benchmark's contract with BENCHMARK.json (a test keeps them equal).
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them; see workloads.go for what each means on an
// offline and on a serving workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
	{"bases_per_s", "bases/s"},
	{"p50_ms.low", "ms"},
	{"p99_ms.low", "ms"},
	{"p50_ms.high", "ms"},
	{"p99_ms.high", "ms"},
	{"mapped_correct_frac", "fraction"},
}

// perLayer are the traced run's metrics. A metric that has no meaning on
// a workload (a server counter on an offline workload) reads 0 there.
var perLayer = []metricDef{
	{"minimap.index_build_s", "s"},
	{"minimap.index_mb", "MB"},
	{"minimap.locate_us_per_read", "us"},
	{"minimap.candidates_per_read", "count"},
	{"minimap.alloc_bytes_per_read", "B"},
	{"core.align_us_per_pair", "us"},
	{"core.ns_per_window", "ns"},
	{"core.windows_per_kbase", "count"},
	{"core.dp_words_per_window", "count"},
	{"core.rows_skipped_frac", "fraction"},
	{"core.footprint_bits_per_window", "bits"},
	{"core.allocs_per_pair", "count"},
	{"core.footprint_reduction_x", "x"},
	{"core.access_reduction_x", "x"},
	{"cigar.render_ns_per_pair", "ns"},
	{"engine.parallel_eff", "fraction"},
	{"engine.overhead_us_per_read", "us"},
	{"engine.alloc_bytes_per_base", "B"},
	{"go.gc_cpu_frac", "fraction"},
	{"gpu.model_pairs_per_s", "1/s"},
	{"gpu.spilled_blocks_frac", "fraction"},
	{"samfmt.ns_per_record", "ns"},
	{"samfmt.bytes_per_read", "B"},
	{"server.handler_us.align", "us"},
	{"server.handler_us.map_align_json", "us"},
	{"server.handler_us.map_align_sam", "us"},
	{"server.transport_us", "us"},
	{"server.cache_hit_frac", "fraction"},
	{"server.batch_pairs_mean", "count"},
	{"server.rejected_frac", "fraction"},
	{"server.queue_wait_ms", "ms"},
	{"server.backend_exec_ms", "ms"},
	{"proxy.hop_us", "us"},
	{"proxy.node_share_max", "fraction"},
	{"loadgen.late_frac.low", "fraction"},
	{"loadgen.late_frac.high", "fraction"},
	{"loadgen.backlog_ms.high", "ms"},
	{"serve.capacity_rps", "1/s"},
	{"self_us.minimap.candidates", "us"},
	{"self_us.engine.align", "us"},
	{"self_us.samfmt.record", "us"},
	{"self_us.core.align_encoded", "us"},
	{"self_us.cigar.string", "us"},
	{"self_us.engine.align_batch", "us"},
	{"self_us.server.serve_http", "us"},
	{"self_us.http.round_trip", "us"},
	{"trace.overhead_frac", "fraction"},
}

// selfSpans maps the self_us.* metrics to the span names they average.
var selfSpans = []string{
	"minimap.candidates", "engine.align", "samfmt.record", "core.align_encoded",
	"cigar.string", "engine.align_batch", "server.serve_http", "http.round_trip",
}

// bench is one run's state: its inputs, the values it has measured and
// its operation and correctness tallies.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	rec      *recorder // nil on an untraced run
	log      io.Writer

	mu     sync.Mutex
	values map[string]float64
	info   map[string]any

	attempted atomic.Int64
	failed    atomic.Int64
	wrong     atomic.Int64
}

// set records a metric value. Both runs compute what they can; the
// output keeps the table the run's mode asks for.
func (b *bench) set(name string, v float64) {
	b.mu.Lock()
	b.values[name] = v
	b.mu.Unlock()
}

// has reports whether a metric has been set.
func (b *bench) has(name string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.values[name]
	return ok
}

// note records a fact about the run's inputs or environment.
func (b *bench) note(key string, v any) {
	b.mu.Lock()
	b.info[key] = v
	b.mu.Unlock()
}

// wrongf counts one wrong output and logs the first few.
func (b *bench) wrongf(format string, args ...any) {
	if b.wrong.Add(1) <= 10 {
		fmt.Fprintf(b.log, "perfbench: WRONG OUTPUT: "+format+"\n", args...)
	}
}

// failf counts one failed operation and logs the first few.
func (b *bench) failf(format string, args ...any) {
	if b.failed.Add(1) <= 10 {
		fmt.Fprintf(b.log, "perfbench: failed: "+format+"\n", args...)
	}
}

// traced reports whether this is the per-layer run.
func (b *bench) traced() bool { return b.rec != nil }

// phaseSeconds is a share of the run's measuring time.
func (b *bench) phaseSeconds(share float64) time.Duration {
	return time.Duration(share * b.seconds * float64(time.Second))
}

type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "measuring time of the run")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for the run's JSON dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	// The load this benchmark offers never assumes more processors than
	// the machine has.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}

	b := &bench{
		workload: w.name,
		seed:     *seed,
		seconds:  *seconds,
		log:      stderr,
		values:   make(map[string]float64),
		info:     make(map[string]any),
	}
	if *trace == 1 {
		b.rec = newRecorder()
	}
	recordEnvironment(b)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	if err := w.run(ctx, b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	b.note("run_wall_s", time.Since(start).Seconds())

	defs := endToEnd
	if b.traced() {
		finishTrace(b)
		defs = perLayer
	}
	out := output{
		Correct:   b.wrong.Load() == 0,
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   make(map[string]outMetric, len(defs)),
	}
	for _, d := range defs {
		v, ok := b.values[d.Name]
		switch {
		case !ok && b.traced():
			v = 0 // the layer takes no part in this workload
		case !ok:
			fmt.Fprintf(stderr, "perfbench: %s: end-to-end metric %s was not measured\n", w.name, d.Name)
			return 1
		case math.IsNaN(v) || math.IsInf(v, 0):
			fmt.Fprintf(stderr, "perfbench: %s: metric %s is %v\n", w.name, d.Name, v)
			return 1
		}
		out.Metrics[d.Name] = outMetric{Value: v, Unit: d.Unit}
	}
	if out.Attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: %s: no operations attempted\n", w.name)
		return 1
	}
	report(stderr, b, out, defs)
	if err := dump(*outDir, b, out); err != nil {
		fmt.Fprintln(stderr, "perfbench: writing dump:", err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d wrong outputs\n", w.name, b.wrong.Load())
		return 1
	}
	return 0
}

// finishTrace turns the recorded spans into self-time metrics.
func finishTrace(b *bench) {
	st := selfTimes(b.rec.snapshot())
	// Per-call layer costs come from self times where the replay
	// recorded spans around the call.
	if lt := st["minimap.candidates"]; lt.Count > 0 {
		b.set("minimap.locate_us_per_read", float64(lt.Self.Nanoseconds())/1e3/float64(lt.Count))
	}
	if lt := st["samfmt.record"]; lt.Count > 0 {
		b.set("samfmt.ns_per_record", float64(lt.Self.Nanoseconds())/float64(lt.Count))
	}
	for _, name := range selfSpans {
		if lt, ok := st[name]; ok && lt.Count > 0 {
			b.set("self_us."+name, float64(lt.Self.Microseconds())/float64(lt.Count))
		}
	}
	layers := make(map[string]any, len(st))
	for name, lt := range st {
		layers[name] = map[string]any{
			"count": lt.Count, "total_ms": durMS(lt.Total), "self_ms": durMS(lt.Self),
		}
	}
	b.note("span_layers", layers)
}

// recordEnvironment notes what every result must be read against.
func recordEnvironment(b *bench) {
	b.note("workload", b.workload)
	b.note("seed", b.seed)
	b.note("seconds", b.seconds)
	b.note("traced", b.traced())
	b.note("num_cpu", runtime.NumCPU())
	b.note("gomaxprocs", runtime.GOMAXPROCS(0))
	b.note("go_version", runtime.Version())
	b.note("goos_goarch", runtime.GOOS+"/"+runtime.GOARCH)
	b.note("llc_bytes", lastLevelCache())
}

// lastLevelCache reads the largest CPU cache size Linux reports, or 0.
func lastLevelCache() int64 {
	var best int64
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		raw, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		var n int64
		if _, err := fmt.Sscan(s, &n); err == nil && n*mult > best {
			best = n * mult
		}
	}
	return best
}

// report prints the run for a human: environment, then every metric with
// its unit.
func report(w io.Writer, b *bench, out output, defs []metricDef) {
	keys := make([]string, 0, len(b.info))
	for k := range b.info {
		if k != "span_layers" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "perfbench %s (seed %d, traced=%t)\n", b.workload, b.seed, b.traced())
	for _, k := range keys {
		fmt.Fprintf(w, "  %-28s %v\n", k, b.info[k])
	}
	fmt.Fprintf(w, "  %-28s %d\n", "attempted", out.Attempted)
	fmt.Fprintf(w, "  %-28s %d (failed_frac %.6f)\n", "failed", out.Failed,
		float64(out.Failed)/float64(max(out.Attempted, 1)))
	fmt.Fprintf(w, "  %-28s %d\n", "wrong_outputs", b.wrong.Load())
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.Name, out.Metrics[d.Name].Value, d.Unit)
	}
}

// dump writes the run's environment, metrics and (traced) spans.
func dump(dir string, b *bench, out output) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := map[string]any{"info": b.info, "result": out, "wrong_outputs": b.wrong.Load()}
	if b.traced() {
		doc["spans"] = b.rec.snapshot()
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	mode := "untraced"
	if b.traced() {
		mode = "traced"
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.json", b.workload, b.seed, mode)), raw, 0o644)
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
