package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"genasm"
	"genasm/internal/samfmt"
)

// Offline workload inputs. The long-read genome is sized so that the
// minimizer index (about 12 bytes per base) is larger than a typical
// server last-level cache, as a real genome's index is.
const (
	longGenomeLen = 16_000_000
	longReadLen   = 10_000
	longErrorRate = 0.10
	mapBatchReads = 50

	pairsGenomeLen = 4_000_000
	pairsMaxReads  = 400
	pairsChunk     = 64

	// setupRepeats is how many times set-up runs; setup_s is the median.
	setupRepeats = 3
	// latencyItems is how many distinct reads (or pairs) the latency
	// phases time: the smallest count whose p99 has minBeyond items
	// beyond it.
	latencyItems = 1000
	// rounds interleave the latency passes and throughput slices over
	// the whole run; an item's latency is its median over the rounds.
	rounds = 7
	// minThroughputShare of --seconds goes to throughput repeats however
	// long the latency passes take.
	minThroughputShare = 0.3
)

func toReads(sims []genasm.SimulatedRead) []genasm.Read {
	reads := make([]genasm.Read, len(sims))
	for i, s := range sims {
		reads[i] = genasm.Read{Name: s.Name, Seq: s.Seq, Qual: s.Qual}
	}
	return reads
}

// itemLatencies times every item once, in the given order, from conns
// callers, each caller starting its next item when the previous one
// returns, and returns the latencies in ms by item (+Inf for a failed
// item).
func itemLatencies(ctx context.Context, order []int, conns int, op func(ctx context.Context, i int) error) []float64 {
	lat := make([]float64, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(order) {
					return
				}
				i := order[k]
				t0 := time.Now()
				if ctx.Err() != nil || op(ctx, i) != nil {
					lat[i] = math.Inf(1)
					continue
				}
				lat[i] = durMS(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	return lat
}

// perItemMedian folds several passes over the same items into one
// latency per item.
func perItemMedian(passes [][]float64) []float64 {
	out := make([]float64, len(passes[0]))
	col := make([]float64, len(passes))
	for i := range out {
		for r := range passes {
			col[r] = passes[r][i]
		}
		out[i] = median(col)
	}
	return out
}

// setLatency reports the p50 and p99 of one latency distribution.
func setLatency(b *bench, rung string, lat []float64) error {
	s := summarize(lat)
	p50, ok50 := s.P[50]
	p99, ok99 := s.P[99]
	if !ok50 || !ok99 {
		return fmt.Errorf("%s: %d samples do not support p99", rung, s.N)
	}
	if math.IsInf(p99, 1) {
		return fmt.Errorf("%s: more than 1%% of operations failed", rung)
	}
	b.set("p50_ms."+rung, p50)
	b.set("p99_ms."+rung, p99)
	b.note("latency_samples."+rung, s.N)
	b.note("latency_percentiles_ms."+rung, percentileNote(s))
	return nil
}

func percentileNote(s latencySummary) map[string]float64 {
	out := make(map[string]float64, len(s.P))
	for p, v := range s.P {
		out[fmt.Sprintf("p%g", p)] = v
	}
	return out
}

// offlineOps are the calls one offline workload times.
type offlineOps struct {
	// one runs latency item i as a single call.
	one func(ctx context.Context, i int) error
	// itemBases is item i's query length.
	itemBases func(i int) int
	// batch runs throughput repeat rep and returns the bases it completed.
	batch func(ctx context.Context, rep int) (int, error)
}

// runRounds measures an offline workload. Each of the rounds times every
// latency item once with one caller (low) and once with one caller per
// processor (high), then runs throughput repeats until its share of
// --seconds is used. Interleaving spreads every metric over the whole
// run, so a burst of machine noise reaches a minority of its samples.
func runRounds(ctx context.Context, b *bench, ops offlineOps) error {
	procs := runtime.GOMAXPROCS(0)
	low := make([][]float64, rounds)
	high := make([][]float64, rounds)
	var rates []float64
	var lowWall, tpWall time.Duration
	var tpBases int
	var rt runtimeSample
	start := time.Now()
	rep := 0
	for r := 0; r < rounds; r++ {
		// Each pass visits the items in its own order, so a burst of
		// machine noise lands on unrelated items (not on the adjacent
		// candidates of one read) and the per-item median discards it.
		rng := rand.New(rand.NewPCG(uint64(b.seed), uint64(r)))
		t0 := time.Now()
		low[r] = itemLatencies(ctx, rng.Perm(latencyItems), 1, ops.one)
		lowWall += time.Since(t0)
		high[r] = itemLatencies(ctx, rng.Perm(latencyItems), procs, ops.one)
		end := start.Add(b.phaseSeconds(float64(r+1) / rounds))
		if least := time.Now().Add(b.phaseSeconds(minThroughputShare / rounds)); end.Before(least) {
			end = least
		}
		rt0 := readRuntime()
		t1 := time.Now()
		for first := true; first || time.Now().Before(end); first = false {
			if err := ctx.Err(); err != nil {
				return err
			}
			t := time.Now()
			bases, err := ops.batch(ctx, rep)
			if err != nil {
				return err
			}
			rep++
			rates = append(rates, float64(bases)/time.Since(t).Seconds())
			tpBases += bases
		}
		tpWall += time.Since(t1)
		rt = rt.add(readRuntime().sub(rt0))
	}
	if err := setLatency(b, "low", perItemMedian(low)); err != nil {
		return err
	}
	if err := setLatency(b, "high", perItemMedian(high)); err != nil {
		return err
	}
	b.note("latency_passes", rounds)
	b.set("bases_per_s", median(rates))
	b.note("throughput_repeats", len(rates))
	b.set("engine.alloc_bytes_per_base", rt.allocBytes/float64(tpBases))
	b.set("go.gc_cpu_frac", rt.gcCPUFrac())
	// Serial time per base from the one-caller passes, against the
	// throughput phase's wall time per base on every processor.
	lowBases := 0
	for i := 0; i < latencyItems; i++ {
		lowBases += ops.itemBases(i)
	}
	serialPerBase := lowWall.Seconds() / float64(rounds*lowBases)
	b.set("engine.parallel_eff", serialPerBase*float64(tpBases)/(tpWall.Seconds()*float64(procs)))
	return nil
}

// runLongReadMap is the paper's use case, what genasm-map does: long
// reads stream through Engine.MapAlign and come out as SAM.
func runLongReadMap(ctx context.Context, b *bench) error {
	genome := genasm.GenerateGenome(longGenomeLen, b.seed)
	sims, err := genasm.SimulateLongReads(genome, latencyItems, longReadLen, longErrorRate, b.seed+1)
	if err != nil {
		return err
	}
	reads := toReads(sims)
	readBases := 0
	for _, r := range reads {
		readBases += len(r.Seq)
	}
	b.note("genome_bases", len(genome))
	b.note("reads", len(reads))
	b.note("read_bases", readBases)

	var mapper *genasm.Mapper
	var eng *genasm.Engine
	var setups, builds, indexMB []float64
	for i := 0; i < setupRepeats; i++ {
		mapper, eng = nil, nil
		before := liveHeapBytes()
		t0 := time.Now()
		if mapper, err = genasm.NewMapper(genome); err != nil {
			return err
		}
		built := time.Since(t0)
		if eng, err = genasm.NewEngine(genasm.WithMapper(mapper)); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		builds = append(builds, built.Seconds())
		indexMB = append(indexMB, (liveHeapBytes()-before)/1e6)
	}
	b.set("setup_s", median(setups))
	b.set("heap_live_mb", liveHeapBytes()/1e6)
	b.set("minimap.index_build_s", median(builds))
	b.set("minimap.index_mb", median(indexMB))
	b.note("index_mb", median(indexMB))

	sref := samfmt.Ref{Name: "chr1", Length: len(genome)}
	pg := samfmt.Program{Name: "perfbench"}
	book := newOutcomeBook(len(reads))
	batches := len(reads) / mapBatchReads
	digests := make([]string, batches)
	ops := offlineOps{
		one: func(ctx context.Context, i int) error {
			out, err := eng.MapAlign(ctx, genasm.StreamReads(reads[i:i+1]))
			if err != nil {
				return err
			}
			n := 0
			for m := range out {
				n++
				b.attempted.Add(1)
				if m.Err != nil {
					b.failf("read %s: %v", reads[i].Name, m.Err)
					return m.Err
				}
				if d := book.check(i, m); d != "" {
					b.wrongf("read %s: %s", reads[i].Name, d)
				}
			}
			if n != 1 {
				b.wrongf("read %s: %d emissions, want 1", reads[i].Name, n)
			}
			return ctx.Err()
		},
		itemBases: func(i int) int { return len(reads[i].Seq) },
		// A whole batch through MapAlign into a SAM writer, as genasm-map
		// runs; each batch's SAM digest must repeat exactly.
		batch: func(ctx context.Context, rep int) (int, error) {
			bi := rep % batches
			dw := newDigestWriter()
			sw := samfmt.NewWriter(dw, samfmt.SAM, []samfmt.Ref{sref}, pg)
			out, err := eng.MapAlign(ctx, genasm.StreamReads(reads[bi*mapBatchReads:(bi+1)*mapBatchReads]))
			if err != nil {
				return 0, err
			}
			bases := 0
			for m := range out {
				i := bi*mapBatchReads + m.ReadIndex
				b.attempted.Add(1)
				if m.Err != nil {
					b.failf("read %s: %v", m.Read.Name, m.Err)
					continue
				}
				bases += len(m.Read.Seq)
				if d := book.check(i, m); d != "" {
					b.wrongf("read %s: %s", m.Read.Name, d)
				}
				if err := sw.Write(sref, m); err != nil {
					return 0, err
				}
			}
			if err := sw.Flush(); err != nil {
				return 0, err
			}
			if digests[bi] == "" {
				digests[bi] = dw.sum()
			} else if digests[bi] != dw.sum() {
				b.wrongf("batch %d: SAM digest changed between repeats", bi)
			}
			return bases, ctx.Err()
		},
	}
	if err := runRounds(ctx, b, ops); err != nil {
		return err
	}

	// Off the clock: the first batch replayed stage by stage must give
	// the same SAM bytes, and every record must be a valid alignment
	// against the reference.
	batch := reads[:mapBatchReads]
	var samBuf bytes.Buffer
	replayed, replayWall, err := replayReads(ctx, b.rec, eng, mapper, batch, sref, pg, &samBuf)
	if err != nil {
		return err
	}
	dw := newDigestWriter()
	_, _ = dw.Write(samBuf.Bytes())
	if dw.sum() != digests[0] {
		b.wrongf("stage-by-stage replay SAM digest differs from MapAlign's")
	}
	b.set("samfmt.bytes_per_read", float64(dw.n)/float64(len(batch)))
	checkSAM(b, samBuf.Bytes(), genome)
	var pairs []genasm.Pair
	for i, m := range replayed {
		if d := book.check(i, m); d != "" {
			b.wrongf("replay of read %s: %s", batch[i].Name, d)
		}
		if !m.Unmapped {
			pairs = append(pairs, alignedPair(mapper, m))
		}
	}
	// Every read's outcome, as the run first saw it, must render to a
	// valid SAM record.
	correct := 0
	for i, m := range book.out {
		if !book.seen[i] {
			b.wrongf("read %s: never mapped", reads[i].Name)
			continue
		}
		line, err := samfmt.SAMRecord(sref, m)
		if err != nil {
			return err
		}
		if err := checkSAMRecord(line, genome); err != nil {
			b.wrongf("read %s: SAM record: %v", reads[i].Name, err)
		}
		if placedCorrectly(m, sims[i]) {
			correct++
		}
	}
	b.set("mapped_correct_frac", float64(correct)/float64(len(reads)))

	if b.traced() {
		if err := measureMapOverhead(ctx, b, eng, mapper, batch); err != nil {
			return err
		}
		measureLocate(b, mapper, batch)
		if err := measureTraceOverhead(ctx, b, eng, mapper, batch, sref, pg, replayWall); err != nil {
			return err
		}
		if err := measureKernel(ctx, b, pairs); err != nil {
			return err
		}
	}
	return nil
}

// alignedPair rebuilds the pair MapAlign aligned for an emission.
func alignedPair(mapper *genasm.Mapper, m genasm.MappedAlignment) genasm.Pair {
	q := m.Read.Seq
	if m.Candidate.RevComp {
		q = genasm.ReverseComplement(q)
	}
	return genasm.Pair{Query: q, Ref: mapper.Region(m.Candidate)}
}

// replayReads maps, aligns and renders reads one stage at a time through
// the public calls MapAlign chains (best candidate only, as MapAlign
// without WithAllCandidates), with a span around each call, and writes
// the SAM header and records to w.
func replayReads(ctx context.Context, rec *recorder, eng *genasm.Engine, mapper *genasm.Mapper, reads []genasm.Read,
	sref samfmt.Ref, pg samfmt.Program, w *bytes.Buffer) ([]genasm.MappedAlignment, time.Duration, error) {
	out := make([]genasm.MappedAlignment, len(reads))
	bw := bufio.NewWriter(w)
	t0 := time.Now()
	bw.WriteString(samfmt.SAMHeader([]samfmt.Ref{sref}, pg))
	for i, rd := range reads {
		tr := rec.newTrace()
		root := rec.begin(tr, -1, "read")
		m := genasm.MappedAlignment{ReadIndex: i, Read: rd}
		s := rec.begin(tr, root, "minimap.candidates")
		cands := mapper.Candidates(rd.Seq)
		rec.end(s)
		if len(cands) == 0 {
			m.Unmapped = true
		} else {
			m.Candidates = len(cands)
			if len(cands) > 1 {
				m.SecondaryScore = cands[1].Score
			}
			m.Candidate = cands[0]
			p := alignedPair(mapper, m)
			s = rec.begin(tr, root, "engine.align")
			res, err := eng.Align(ctx, p.Query, p.Ref)
			rec.end(s)
			if err != nil {
				return nil, 0, err
			}
			m.Result = res
		}
		s = rec.begin(tr, root, "samfmt.record")
		line, err := samfmt.SAMRecord(sref, m)
		rec.end(s)
		if err != nil {
			return nil, 0, err
		}
		bw.WriteString(line)
		bw.WriteByte('\n')
		rec.end(root)
		out[i] = m
	}
	if err := bw.Flush(); err != nil {
		return nil, 0, err
	}
	return out, time.Since(t0), nil
}

// measureMapOverhead times the reads one at a time through MapAlign and
// through the two calls it chains (Mapper.Candidates, then Engine.Align
// on the best candidate), alternating passes; the per-read difference of
// the medians is MapAlign's own cost.
func measureMapOverhead(ctx context.Context, b *bench, eng *genasm.Engine, mapper *genasm.Mapper, reads []genasm.Read) error {
	const passes = 3
	var whole, stages []float64
	for p := 0; p < passes; p++ {
		t0 := time.Now()
		for i := range reads {
			out, err := eng.MapAlign(ctx, genasm.StreamReads(reads[i:i+1]))
			if err != nil {
				return err
			}
			for range out {
			}
		}
		whole = append(whole, float64(time.Since(t0).Nanoseconds()))
		t0 = time.Now()
		for _, rd := range reads {
			cands := mapper.Candidates(rd.Seq)
			if len(cands) == 0 {
				continue
			}
			pair := alignedPair(mapper, genasm.MappedAlignment{Read: rd, Candidate: cands[0]})
			if _, err := eng.Align(ctx, pair.Query, pair.Ref); err != nil {
				return err
			}
		}
		stages = append(stages, float64(time.Since(t0).Nanoseconds()))
	}
	b.set("engine.overhead_us_per_read", (median(whole)-median(stages))/1e3/float64(len(reads)))
	return ctx.Err()
}

// measureTraceOverhead repeats the replay without spans: the difference
// is what recording spans costs.
func measureTraceOverhead(ctx context.Context, b *bench, eng *genasm.Engine, mapper *genasm.Mapper, reads []genasm.Read,
	sref samfmt.Ref, pg samfmt.Program, traced time.Duration) error {
	var sink bytes.Buffer
	_, wall, err := replayReads(ctx, nil, eng, mapper, reads, sref, pg, &sink)
	if err != nil {
		return err
	}
	b.set("trace.overhead_frac", traced.Seconds()/wall.Seconds()-1)
	return nil
}

// checkSAM verifies every record of a SAM document.
func checkSAM(b *bench, sam []byte, ref []byte) {
	for _, line := range bytes.Split(bytes.TrimRight(sam, "\n"), []byte("\n")) {
		if len(line) == 0 || line[0] == '@' {
			continue
		}
		if err := checkSAMRecord(string(line), ref); err != nil {
			b.wrongf("SAM record %.40s...: %v", line, err)
		}
	}
}

// runPairsAlign aligns every candidate region of a long-read set with
// Engine.AlignBatch. Locating the candidates is set-up work, so the
// timed calls are almost all kernel.
func runPairsAlign(ctx context.Context, b *bench) error {
	genome := genasm.GenerateGenome(pairsGenomeLen, b.seed)
	sims, err := genasm.SimulateLongReads(genome, pairsMaxReads, longReadLen, longErrorRate, b.seed+1)
	if err != nil {
		return err
	}
	b.note("genome_bases", len(genome))

	// The read set is the shortest prefix of the simulated reads whose
	// candidates give latencyItems pairs. The mapper is set-up only: it
	// is dropped before the timed phases, so the collector does not mark
	// an index the workload never reads while the kernel runs.
	var eng *genasm.Engine
	var pairs []genasm.Pair
	var nReads, correct int
	var setups, builds []float64
	for i := 0; i < setupRepeats; i++ {
		eng, pairs, nReads, correct = nil, nil, 0, 0
		liveHeapBytes()
		t0 := time.Now()
		mapper, err := genasm.NewMapper(genome)
		if err != nil {
			return err
		}
		builds = append(builds, time.Since(t0).Seconds())
		if eng, err = genasm.NewEngine(); err != nil {
			return err
		}
		for _, s := range sims {
			if len(pairs) >= latencyItems {
				break
			}
			nReads++
			cands := mapper.Candidates(s.Seq)
			var rc []byte
			for rank, c := range cands {
				q := s.Seq
				if c.RevComp {
					if rc == nil {
						rc = genasm.ReverseComplement(s.Seq)
					}
					q = rc
				}
				pairs = append(pairs, genasm.Pair{Query: q, Ref: mapper.Region(c)})
				if rank == 0 && placedCorrectly(genasm.MappedAlignment{Candidate: c}, s) {
					correct++
				}
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if len(pairs) < latencyItems {
		return fmt.Errorf("%d reads gave only %d candidate pairs", nReads, len(pairs))
	}
	b.set("setup_s", median(setups))
	b.set("heap_live_mb", liveHeapBytes()/1e6)
	b.set("minimap.index_build_s", median(builds))
	b.set("minimap.candidates_per_read", float64(len(pairs))/float64(nReads))
	b.set("mapped_correct_frac", float64(correct)/float64(nReads))
	pairBases := 0
	for _, p := range pairs {
		pairBases += len(p.Query)
	}
	b.note("reads", nReads)
	b.note("pairs", len(pairs))
	b.note("pair_query_bases", pairBases)

	// Off the clock: the expected result of every pair is the
	// unimproved GenASM's, the algorithm the paper improves on.
	ref, err := genasm.NewEngine(genasm.WithAlgorithm(genasm.GenASMUnimproved))
	if err != nil {
		return err
	}
	want, err := ref.AlignBatch(ctx, pairs)
	if err != nil {
		return err
	}
	check := func(i int, got genasm.Result) {
		if got != want[i] {
			b.wrongf("pair %d: %+v, want %+v", i, got, want[i])
		}
	}

	chunks := (len(pairs) + pairsChunk - 1) / pairsChunk
	ops := offlineOps{
		one: func(ctx context.Context, i int) error {
			b.attempted.Add(1)
			res, err := eng.AlignBatch(ctx, pairs[i:i+1])
			if err != nil {
				b.failf("pair %d: %v", i, err)
				return err
			}
			check(i, res[0])
			return nil
		},
		itemBases: func(i int) int { return len(pairs[i].Query) },
		batch: func(ctx context.Context, rep int) (int, error) {
			lo := (rep % chunks) * pairsChunk
			chunk := pairs[lo:min(lo+pairsChunk, len(pairs))]
			tr := b.rec.newTrace()
			s := b.rec.begin(tr, -1, "engine.align_batch")
			res, err := eng.AlignBatch(ctx, chunk)
			b.rec.end(s)
			b.attempted.Add(int64(len(chunk)))
			if err != nil {
				b.failf("chunk at %d: %v", lo, err)
				b.failed.Add(int64(len(chunk) - 1))
				return 0, err
			}
			bases := 0
			for j, r := range res {
				check(lo+j, r)
				bases += len(chunk[j].Query)
			}
			return bases, nil
		},
	}
	if err := runRounds(ctx, b, ops); err != nil {
		return err
	}

	if b.traced() {
		ix, err := measureIndex(genome)
		if err != nil {
			return err
		}
		b.set("minimap.index_mb", ix.mb)
		mapper, err := genasm.NewMapper(genome)
		if err != nil {
			return err
		}
		measureLocate(b, mapper, toReads(sims[:nReads]))
		if err := measureKernel(ctx, b, pairs[:kernelPairs]); err != nil {
			return err
		}
	}
	return nil
}
