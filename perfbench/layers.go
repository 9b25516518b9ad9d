package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"genasm"
	"genasm/internal/baseline"
	"genasm/internal/core"
	"genasm/internal/dna"
	"genasm/internal/stats"
)

// kernelPairs caps the pairs the serial kernel replay aligns: enough for
// steady means, few enough that the unimproved kernel's run stays short.
const kernelPairs = 200

// indexCost is what building one minimizer index took.
type indexCost struct {
	seconds, mb float64
}

// measureIndex builds an index of ref off the clock and returns its
// build time and the live heap it holds.
func measureIndex(ref []byte) (indexCost, error) {
	before := liveHeapBytes()
	t0 := time.Now()
	m, err := genasm.NewMapper(ref)
	if err != nil {
		return indexCost{}, err
	}
	el := time.Since(t0)
	after := liveHeapBytes()
	runtime.KeepAlive(m)
	return indexCost{seconds: el.Seconds(), mb: (after - before) / 1e6}, nil
}

// measureLocate times Mapper.Candidates serially and counts what it
// allocates and finds.
func measureLocate(b *bench, mapper *genasm.Mapper, reads []genasm.Read) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	cands := 0
	for _, rd := range reads {
		cands += len(mapper.Candidates(rd.Seq))
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	n := float64(len(reads))
	b.set("minimap.alloc_bytes_per_read", float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	b.set("minimap.candidates_per_read", float64(cands)/n)
	b.set("minimap.locate_us_per_read", float64(el.Nanoseconds())/1e3/n)
}

// measureKernel replays pairs serially through core.Aligner.AlignEncoded:
// once timed, once with the kernel's work counters on, and once through
// the unimproved kernel (internal/baseline) with its counters, which
// gives the paper's footprint and access reductions as exact counts. It
// also renders every CIGAR and runs the pairs through the modelled GPU
// backend.
func measureKernel(ctx context.Context, b *bench, pairs []genasm.Pair) error {
	if len(pairs) == 0 {
		return nil
	}
	qs := make([][]byte, len(pairs))
	ts := make([][]byte, len(pairs))
	queryBases := 0
	for i, p := range pairs {
		qs[i], ts[i] = dna.EncodeSeq(p.Query), dna.EncodeSeq(p.Ref)
		queryBases += len(p.Query)
	}
	al, err := core.New(core.DefaultConfig())
	if err != nil {
		return err
	}
	results := make([]core.Result, len(pairs))
	// Warm the aligner's scratch so the timed pass sees steady state.
	if _, err := al.AlignEncoded(qs[0], ts[0]); err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := range pairs {
		if results[i], err = al.AlignEncoded(qs[i], ts[i]); err != nil {
			return err
		}
	}
	alignWall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	n := float64(len(pairs))
	b.set("core.align_us_per_pair", float64(alignWall.Nanoseconds())/1e3/n)
	b.set("core.allocs_per_pair", float64(m1.Mallocs-m0.Mallocs)/n)

	var imp stats.Counters
	al.SetCounters(&imp)
	for i := range pairs {
		r, err := al.AlignEncoded(qs[i], ts[i])
		if err != nil {
			return err
		}
		if r.Distance != results[i].Distance || r.Cigar.String() != results[i].Cigar.String() {
			b.wrongf("kernel pair %d: counted run differs from timed run", i)
		}
	}
	al.SetCounters(nil)
	wins := float64(imp.Windows)
	b.set("core.ns_per_window", float64(alignWall.Nanoseconds())/wins)
	b.set("core.windows_per_kbase", wins/(float64(queryBases)/1e3))
	b.set("core.dp_words_per_window", float64(imp.TableWrites+imp.TableReads)/wins)
	b.set("core.rows_skipped_frac", float64(imp.RowsSkipped)/float64(imp.RowsComputed+imp.RowsSkipped))
	b.set("core.footprint_bits_per_window", imp.MeanWindowFootprintBits())

	bl, err := baseline.New(baseline.DefaultConfig())
	if err != nil {
		return err
	}
	var unimp stats.Counters
	bl.SetCounters(&unimp)
	for i := range pairs {
		r, err := bl.AlignEncoded(qs[i], ts[i])
		if err != nil {
			return err
		}
		if r.Distance != results[i].Distance || r.Cigar.String() != results[i].Cigar.String() {
			b.wrongf("kernel pair %d: improved and unimproved GenASM disagree", i)
		}
	}
	b.set("core.footprint_reduction_x", unimp.MeanWindowFootprintBits()/imp.MeanWindowFootprintBits())
	b.set("core.access_reduction_x", float64(unimp.Accesses())/float64(imp.Accesses()))
	b.note("kernel_pairs", len(pairs))
	b.note("kernel_windows", imp.Windows)

	// CIGAR rendering, timed over several passes for a steady figure.
	const renderPasses = 5
	var passes []float64
	sink := 0
	for p := 0; p < renderPasses; p++ {
		t0 := time.Now()
		for i := range results {
			sink += len(results[i].Cigar.String())
		}
		passes = append(passes, float64(time.Since(t0).Nanoseconds())/n)
	}
	b.set("cigar.render_ns_per_pair", median(passes))
	b.note("cigar_bytes_per_pair", float64(sink)/renderPasses/n)

	// The same replay with a span around each call.
	rec := b.rec
	t0 = time.Now()
	for i := range pairs {
		tr := rec.newTrace()
		root := rec.begin(tr, -1, "pair")
		s := rec.begin(tr, root, "core.align_encoded")
		r, err := al.AlignEncoded(qs[i], ts[i])
		rec.end(s)
		if err != nil {
			return err
		}
		s = rec.begin(tr, root, "cigar.string")
		_ = r.Cigar.String()
		rec.end(s)
		rec.end(root)
	}
	tracedWall := time.Since(t0)
	if !b.has("trace.overhead_frac") && rec != nil {
		// Compare with the untimed-span pass plus rendering.
		plain := alignWall + time.Duration(median(passes)*n)
		b.set("trace.overhead_frac", tracedWall.Seconds()/plain.Seconds()-1)
	}
	return measureGPU(ctx, b, pairs, results)
}

// measureGPU runs the pairs through the simulated-GPU backend. Its
// throughput is the device model's figure for the paper's GPU, labelled
// modelled, not a measurement; its results must equal the CPU kernel's.
func measureGPU(ctx context.Context, b *bench, pairs []genasm.Pair, want []core.Result) error {
	eng, err := genasm.NewEngine(genasm.WithBackendName("gpu"))
	if err != nil {
		return err
	}
	res, err := eng.AlignBatch(ctx, pairs)
	if err != nil {
		return err
	}
	for i, r := range res {
		if r.Distance != want[i].Distance || r.Cigar != want[i].Cigar.String() {
			b.wrongf("gpu pair %d: differs from the CPU kernel", i)
		}
	}
	st := eng.BackendStats().GPU
	if st == nil {
		return fmt.Errorf("gpu backend reported no launch")
	}
	b.set("gpu.model_pairs_per_s", st.PairsPerSecond)
	b.set("gpu.spilled_blocks_frac", float64(st.SpilledBlocks)/float64(st.SharedBlocks+st.SpilledBlocks))
	b.note("gpu_model_device", st.Device+" (modelled)")
	return nil
}
