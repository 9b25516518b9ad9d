package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"genasm"
	"genasm/internal/samfmt"
	"genasm/server"
)

// verifyWorkers answer the pool concurrently during verification, so
// single requests coalesce in the scheduler instead of each waiting out
// its batching delay.
const verifyWorkers = 8

// handlerSamples is how many requests of each route the traced run
// times with direct Handler().ServeHTTP calls.
const handlerSamples = 100

// send posts one pool request, checks the answer against the verified
// one, and returns the query bases it completed.
func (b *bench) send(ctx context.Context, hc *http.Client, base string, rq *request) (int, error) {
	b.attempted.Add(1)
	tr := b.rec.newTrace()
	t0 := time.Now()
	body, err := post(ctx, hc, base+rq.path, rq.body, rq.kind == "map_align_sam")
	b.rec.add(tr, -1, "http.round_trip", t0, time.Since(t0))
	if err != nil {
		b.failf("%s: %v", rq.path, err)
		return 0, err
	}
	if sha256.Sum256(normalizeCached(body)) != rq.digest {
		b.wrongf("%s: answer differs from the verified one: %.200s", rq.path, body)
	}
	return rq.bases, nil
}

// post sends one request and returns the body of a 200 answer (for a
// streamed answer, one whose trailer reports success).
func post(ctx context.Context, hc *http.Client, url string, body []byte, stream bool) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
	}
	if st := resp.Trailer.Get(server.TrailerStatus); stream && st != "ok" {
		return nil, fmt.Errorf("stream status %q", st)
	}
	return raw, nil
}

// serveDirect runs one request through a handler without a network.
func serveDirect(ctx context.Context, h http.Handler, path string, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr.Result(), rr.Body.Bytes(), nil
}

// registerDirect uploads the references through the handler.
func registerDirect(ctx context.Context, h http.Handler, p *servePool) error {
	for i, name := range p.names {
		raw, err := json.Marshal(server.RefAddRequest{Name: name, Sequence: string(p.refs[i])})
		if err != nil {
			return err
		}
		resp, body, err := serveDirect(ctx, h, "/refs", raw)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("POST /refs %s: %d %s", name, resp.StatusCode, body)
		}
	}
	return nil
}

// oracle computes what the server should answer, from direct Engine
// and Mapper calls.
type oracle struct {
	eng     *genasm.Engine
	mappers []*genasm.Mapper
	pool    *servePool
}

func newOracle(p *servePool) (*oracle, error) {
	eng, err := genasm.NewEngine()
	if err != nil {
		return nil, err
	}
	o := &oracle{eng: eng, pool: p}
	for _, ref := range p.refs {
		m, err := genasm.NewMapper(ref)
		if err != nil {
			return nil, err
		}
		o.mappers = append(o.mappers, m)
	}
	return o, nil
}

// mapRead is MapAlign's answer for one read, best candidate only.
func (o *oracle) mapRead(ctx context.Context, ref int, r genasm.SimulatedRead, qual bool) (genasm.MappedAlignment, error) {
	m := genasm.MappedAlignment{Read: genasm.Read{Name: r.Name, Seq: r.Seq}}
	if qual {
		m.Read.Qual = r.Qual
	}
	mapper := o.mappers[ref]
	cands := mapper.Candidates(r.Seq)
	if len(cands) == 0 {
		m.Unmapped = true
		return m, nil
	}
	m.Candidates = len(cands)
	if len(cands) > 1 {
		m.SecondaryScore = cands[1].Score
	}
	m.Candidate = cands[0]
	p := alignedPair(mapper, m)
	res, err := o.eng.Align(ctx, p.Query, p.Ref)
	m.Result = res
	return m, err
}

// check compares one answer with the oracle. It returns how many of the
// request's reads were placed on their true locus.
func (o *oracle) check(ctx context.Context, rq *request, body []byte) (int, error) {
	switch rq.kind {
	case "align":
		var got server.AlignResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return 0, err
		}
		pair := alignedPairOf(rq)
		want, err := o.eng.Align(ctx, pair.Query, pair.Ref)
		if err != nil {
			return 0, err
		}
		if len(got.Results) != 1 {
			return 0, fmt.Errorf("%d results for 1 pair", len(got.Results))
		}
		g := got.Results[0]
		if g.Distance != want.Distance || g.Score != want.Score || g.Cigar != want.Cigar || g.RefConsumed != want.RefConsumed {
			return 0, fmt.Errorf("/align %+v, engine %+v", g, want)
		}
		return 0, nil
	case "map_align_json":
		var got server.MapAlignResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return 0, err
		}
		if got.Ref != o.pool.names[rq.ref] || len(got.Results) != len(rq.reads) {
			return 0, fmt.Errorf("ref %q with %d results", got.Ref, len(got.Results))
		}
		correct := 0
		for i, r := range rq.reads {
			want, err := o.mapRead(ctx, rq.ref, r, false)
			if err != nil {
				return 0, err
			}
			g := got.Results[i]
			if g.Read != r.Name || g.Error != "" || g.Unmapped != want.Unmapped {
				return 0, fmt.Errorf("read %s: %+v", r.Name, g)
			}
			if want.Unmapped {
				continue
			}
			if len(g.Alignments) != 1 {
				return 0, fmt.Errorf("read %s: %d alignments", r.Name, len(g.Alignments))
			}
			a := g.Alignments[0]
			c, res := want.Candidate, want.Result
			if a.Rank != 0 || a.RefStart != c.Start || a.RefEnd != c.End || a.RevComp != c.RevComp || a.ChainScore != c.Score ||
				a.Distance != res.Distance || a.Score != res.Score || a.Cigar != res.Cigar || a.RefConsumed != res.RefConsumed {
				return 0, fmt.Errorf("read %s: %+v, engine %+v %+v", r.Name, a, c, res)
			}
			if placedCorrectly(want, r) {
				correct++
			}
		}
		return correct, nil
	default:
		var records []string
		for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
			if !strings.HasPrefix(line, "@") {
				records = append(records, line)
			}
		}
		if len(records) != len(rq.reads) {
			return 0, fmt.Errorf("%d SAM records for %d reads", len(records), len(rq.reads))
		}
		sref := samfmt.Ref{Name: o.pool.names[rq.ref], Length: len(o.pool.refs[rq.ref])}
		correct := 0
		for i, r := range rq.reads {
			want, err := o.mapRead(ctx, rq.ref, r, true)
			if err != nil {
				return 0, err
			}
			line, err := samfmt.SAMRecord(sref, want)
			if err != nil {
				return 0, err
			}
			if records[i] != line {
				return 0, fmt.Errorf("SAM record %q, engine renders %q", records[i], line)
			}
			if err := checkSAMRecord(line, o.pool.refs[rq.ref]); err != nil {
				return 0, fmt.Errorf("read %s: %w", r.Name, err)
			}
			if placedCorrectly(want, r) {
				correct++
			}
		}
		return correct, nil
	}
}

// alignedPairOf is the pair an /align request carries.
func alignedPairOf(rq *request) genasm.Pair {
	q := rq.reads[0].Seq
	if rq.reads[0].RevComp {
		q = genasm.ReverseComplement(q)
	}
	return genasm.Pair{Query: q, Ref: rq.region}
}

// verifyPool answers every pool request once on a fresh node, checks
// each answer against the oracle, and keeps the digest of its
// cache-normalised body as the answer every later send must match.
func verifyPool(ctx context.Context, b *bench, p *servePool) error {
	s, err := server.New(server.Config{})
	if err != nil {
		return err
	}
	defer s.Close()
	h := s.Handler()
	if err := registerDirect(ctx, h, p); err != nil {
		return err
	}
	o, err := newOracle(p)
	if err != nil {
		return err
	}
	var next atomic.Int64
	var correct, mapped atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, verifyWorkers)
	for w := 0; w < verifyWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.reqs) || ctx.Err() != nil {
					return
				}
				rq := p.reqs[i]
				resp, body, err := serveDirect(ctx, h, rq.path, rq.body)
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					b.wrongf("verification %s: status %d: %.200s", rq.path, resp.StatusCode, body)
					continue
				}
				if st := resp.Trailer.Get(server.TrailerStatus); rq.kind == "map_align_sam" && st != "ok" {
					b.wrongf("verification %s: stream status %q", rq.path, st)
					continue
				}
				n, err := o.check(ctx, rq, body)
				if err != nil {
					b.wrongf("verification %s: %v", rq.path, err)
					continue
				}
				if rq.kind != "align" {
					correct.Add(int64(n))
					mapped.Add(int64(len(rq.reads)))
				}
				rq.digest = sha256.Sum256(normalizeCached(body))
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	b.set("mapped_correct_frac", float64(correct.Load())/float64(mapped.Load()))
	b.note("pool_map_reads", mapped.Load())
	return nil
}

// handlerTimes times the first handlerSamples requests of each route
// with serial direct Handler().ServeHTTP calls on a fresh node (every
// call a cache miss) and returns each request's handler time.
func handlerTimes(ctx context.Context, b *bench, p *servePool) (map[*request]time.Duration, error) {
	s, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	h := s.Handler()
	if err := registerDirect(ctx, h, p); err != nil {
		return nil, err
	}
	out := make(map[*request]time.Duration)
	perKind := make(map[string][]float64)
	for _, rq := range p.reqs {
		if len(perKind[rq.kind]) >= handlerSamples {
			continue
		}
		tr := b.rec.newTrace()
		t0 := time.Now()
		sp := b.rec.begin(tr, -1, "server.serve_http")
		resp, body, err := serveDirect(ctx, h, rq.path, rq.body)
		b.rec.end(sp)
		el := time.Since(t0)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK || sha256.Sum256(normalizeCached(body)) != rq.digest {
			b.wrongf("direct %s: status %d or answer differs", rq.path, resp.StatusCode)
		}
		out[rq] = el
		perKind[rq.kind] = append(perKind[rq.kind], float64(el.Nanoseconds())/1e3)
	}
	for kind, us := range perKind {
		b.set("server.handler_us."+kind, mean(us))
	}
	return out, nil
}

// measureTransport sends the requests handlerTimes timed, one at a time
// over loopback to another fresh node; the latency not spent in the
// handler is transport.
func measureTransport(ctx context.Context, b *bench, p *servePool) error {
	handler, err := handlerTimes(ctx, b, p)
	if err != nil {
		return err
	}
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	d, err := deploy(ctx, hc, p, 1, false)
	if err != nil {
		return err
	}
	defer d.close()
	var diffs []float64
	for _, rq := range p.reqs {
		hd, ok := handler[rq]
		if !ok {
			continue
		}
		t0 := time.Now()
		if _, err := b.send(ctx, hc, d.base(), rq); err != nil {
			return err
		}
		diffs = append(diffs, float64((time.Since(t0)-hd).Nanoseconds())/1e3)
	}
	b.set("server.transport_us", median(diffs))
	return nil
}

// measureServeLayers replays the pool's reads and pairs through the
// layers below the server.
func measureServeLayers(ctx context.Context, b *bench, p *servePool) error {
	var total indexCost
	for _, ref := range p.refs {
		ix, err := measureIndex(ref)
		if err != nil {
			return err
		}
		total.seconds += ix.seconds
		total.mb += ix.mb
	}
	b.set("minimap.index_build_s", total.seconds)
	b.set("minimap.index_mb", total.mb)
	o, err := newOracle(p)
	if err != nil {
		return err
	}
	var reads []genasm.Read
	var pairs []genasm.Pair
	for _, rq := range p.reqs {
		if rq.ref != 0 {
			continue
		}
		if rq.kind == "align" {
			pairs = append(pairs, alignedPairOf(rq))
			continue
		}
		for _, r := range rq.reads {
			reads = append(reads, genasm.Read{Name: r.Name, Seq: r.Seq, Qual: r.Qual})
		}
	}
	reads = reads[:min(len(reads), 4*handlerSamples)]
	sref := samfmt.Ref{Name: p.names[0], Length: len(p.refs[0])}
	pg := samfmt.Program{Name: "perfbench"}
	// An untimed pass first, so the traced pass and the untraced one it
	// is compared with both run warm.
	var sam bytes.Buffer
	if _, _, err := replayReads(ctx, nil, o.eng, o.mappers[0], reads, sref, pg, &sam); err != nil {
		return err
	}
	sam.Reset()
	replayed, wall, err := replayReads(ctx, b.rec, o.eng, o.mappers[0], reads, sref, pg, &sam)
	if err != nil {
		return err
	}
	checkSAM(b, sam.Bytes(), p.refs[0])
	b.set("samfmt.bytes_per_read", float64(sam.Len())/float64(len(reads)))
	measureLocate(b, o.mappers[0], reads)
	if err := measureTraceOverhead(ctx, b, o.eng, o.mappers[0], reads, sref, pg, wall); err != nil {
		return err
	}
	for _, m := range replayed {
		if !m.Unmapped {
			pairs = append(pairs, alignedPair(o.mappers[0], m))
		}
	}
	return measureKernel(ctx, b, pairs[:min(len(pairs), kernelPairs)])
}

// serverCounters are the monotonic *_total counters of one or more
// nodes. Ratios over a measured window come from the difference of two
// readings; the since-boot means and percentiles a scrape also carries
// would mix in everything before the window.
type serverCounters struct {
	Requests  int64 `json:"requests"`
	Rejected  int64 `json:"rejected"`
	PairsDone int64 `json:"pairs_done"`
	Batches   int64 `json:"batches"`
	Hits      int64 `json:"cache_hits"`
	Misses    int64 `json:"cache_misses"`
}

func countersOf(s server.Scrape) serverCounters {
	return serverCounters{
		Requests: s.RequestsTotal, Rejected: s.RejectedTotal, PairsDone: s.PairsDoneTotal,
		Batches: s.BatchesTotal, Hits: s.CacheHitsTotal, Misses: s.CacheMissesTotal,
	}
}

func (c serverCounters) add(o serverCounters) serverCounters {
	return serverCounters{c.Requests + o.Requests, c.Rejected + o.Rejected, c.PairsDone + o.PairsDone,
		c.Batches + o.Batches, c.Hits + o.Hits, c.Misses + o.Misses}
}

func (c serverCounters) sub(o serverCounters) serverCounters {
	return serverCounters{c.Requests - o.Requests, c.Rejected - o.Rejected, c.PairsDone - o.PairsDone,
		c.Batches - o.Batches, c.Hits - o.Hits, c.Misses - o.Misses}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (c serverCounters) cacheHitFrac() float64   { return ratio(c.Hits, c.Hits+c.Misses) }
func (c serverCounters) batchPairsMean() float64 { return ratio(c.PairsDone, c.Batches) }
func (c serverCounters) rejectedFrac() float64   { return ratio(c.Rejected, c.Requests) }

// counters sums the nodes' counters.
func (d *deployment) counters() serverCounters {
	var c serverCounters
	for _, n := range d.nodes {
		c = c.add(countersOf(n.srv.Metrics().Scrape()))
	}
	return c
}

// proxied reads the front's per-node forward counts.
func (d *deployment) proxied() []uint64 {
	if d.front == nil {
		return nil
	}
	snap := d.front.srv.Proxy().Snapshot()
	out := make([]uint64, len(snap.Upstreams))
	for i, u := range snap.Upstreams {
		out[i] = u.ProxiedTotal
	}
	return out
}

// readServerSpans averages the scheduler's queue_wait and backend_exec
// spans over the requests each node's /debug/traces still holds.
func readServerSpans(ctx context.Context, b *bench, hc *http.Client, d *deployment) error {
	var sums = map[string][]float64{}
	for _, n := range d.nodes {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/debug/traces?limit=%d", n.hs.URL, traceBuffer), nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		var doc struct {
			Traces []struct {
				Spans []struct {
					Name       string  `json:"name"`
					DurationMS float64 `json:"duration_ms"`
				} `json:"spans"`
			} `json:"traces"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("/debug/traces: %w", err)
		}
		for _, t := range doc.Traces {
			for _, s := range t.Spans {
				if s.Name == "queue_wait" || s.Name == "backend_exec" {
					sums[s.Name] = append(sums[s.Name], s.DurationMS)
				}
			}
		}
	}
	b.set("server.queue_wait_ms", mean(sums["queue_wait"]))
	b.set("server.backend_exec_ms", mean(sums["backend_exec"]))
	return nil
}
