package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"genasm"
	"genasm/server"
)

// Serving workload inputs: several small references whose indexes fit in
// cache, and Illumina-like reads.
const (
	serveRefCount   = 4
	serveRefLen     = 250_000
	shortReadLen    = 150
	shortErrorRate  = 0.01
	readsPerRef     = 3000
	readsPerRequest = 8
	poolRequests    = 1500
	// Every repeatEvery-th send repeats, byte for byte, one of the last
	// repeatWindow requests, so the result cache is exercised while
	// misses dominate. The pool is large enough that a fresh request has
	// left the default 4096-entry cache before it comes round again.
	repeatEvery  = 5
	repeatWindow = 50
	scheduleLen  = 1 << 17

	// latencyLimitMS is the p99 a rung must meet to count as sustained.
	latencyLimitMS = 10.0
	// maxLateFrac is the share of late sends a sustained rung may have.
	maxLateFrac = 0.01
	traceBuffer = 512
)

// ladder holds the fixed rungs in requests per second. The rates are
// absolute, set on a 2-vCPU machine at the commit that introduced the
// benchmark. With one connection per processor, a lone /align holds its
// connection for the scheduler's 2 ms batching delay, so the generator's
// connections, not the server's processors, bound the open-loop rate. At
// 800 req/s (high) more sends wait for a free connection than at 600
// req/s (low); beyond about 1000 req/s the tail is set by that queue and
// varies widely from run to run. Latency falls between the rungs because
// more requests coalesce.
var ladder = struct{ low, high float64 }{low: 600, high: 800}

const (
	// proxyRounds is how many front/direct window pairs the traced run
	// sends to measure the proxy hop.
	proxyRounds = 3
	// windowSends is one open-loop window: enough sends for a p99 with
	// more than minBeyond beyond it. Each rung is reported as the median
	// over its windows.
	windowSends = 1100
	// satSlice is one closed-loop saturation slice; bases_per_s is the
	// median over the slices.
	satSlice = 500 * time.Millisecond
)

// requestMix is the pool's request kinds in order: 40% /map-align JSON,
// 30% streamed SAM and 30% single-pair /align, the coalescing path. A
// fixed cycle rather than random draws keeps every window's mix the same,
// which the median latency is sensitive to.
var requestMix = []string{
	"map_align_json", "map_align_sam", "align", "map_align_json", "map_align_sam",
	"align", "map_align_json", "map_align_sam", "align", "map_align_json",
}

// request is one distinct request of the pool, with its expected answer.
type request struct {
	kind   string // "align", "map_align_json" or "map_align_sam"
	path   string
	body   []byte
	bases  int
	ref    int
	reads  []genasm.SimulatedRead // map-align reads, or the aligned read
	region []byte                 // the /align reference slice
	digest [32]byte               // of the verified, cache-normalised answer
}

// servePool is the generated traffic: references, distinct requests,
// and the order they are sent in.
type servePool struct {
	names []string
	refs  [][]byte
	reqs  []*request
	order []int32
}

func buildPool(seed int64) (*servePool, error) {
	p := &servePool{}
	reads := make([][]genasm.SimulatedRead, serveRefCount)
	for i := 0; i < serveRefCount; i++ {
		p.names = append(p.names, fmt.Sprintf("ref%d", i))
		p.refs = append(p.refs, genasm.GenerateGenome(serveRefLen, seed+100+int64(i)))
		rs, err := genasm.SimulateShortReads(p.refs[i], readsPerRef, shortReadLen, shortErrorRate, seed+200+int64(i))
		if err != nil {
			return nil, err
		}
		reads[i] = rs
	}
	cursor := make([]int, serveRefCount)
	take := func(ref, n int) []genasm.SimulatedRead {
		out := make([]genasm.SimulatedRead, n)
		for j := range out {
			out[j] = reads[ref][cursor[ref]%len(reads[ref])]
			cursor[ref]++
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	for j := 0; j < poolRequests; j++ {
		rq := &request{ref: rng.Intn(serveRefCount)}
		var body any
		switch kind := requestMix[j%len(requestMix)]; kind {
		case "map_align_json", "map_align_sam":
			rq.kind, rq.path = kind, "/map-align"
			withQual := kind == "map_align_sam"
			if withQual {
				rq.path = "/map-align?format=sam"
			}
			rq.reads = take(rq.ref, readsPerRequest)
			req := server.MapAlignRequest{Ref: p.names[rq.ref]}
			for _, r := range rq.reads {
				in := server.ReadIn{Name: r.Name, Seq: string(r.Seq)}
				if withQual {
					in.Qual = string(r.Qual)
				}
				req.Reads = append(req.Reads, in)
				rq.bases += len(r.Seq)
			}
			body = req
		default:
			rq.kind, rq.path = "align", "/align"
			rq.reads = take(rq.ref, 1)
			r := rq.reads[0]
			q := r.Seq
			if r.RevComp {
				q = genasm.ReverseComplement(q)
			}
			ref := p.refs[rq.ref]
			rq.region = ref[r.Pos:min(len(ref), r.Pos+r.RefSpan+16)]
			rq.bases = len(q)
			body = server.AlignRequest{Pairs: []server.AlignPair{{Query: string(q), Ref: string(rq.region)}}}
		}
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rq.body = raw
		p.reqs = append(p.reqs, rq)
	}
	p.order = make([]int32, scheduleLen)
	fresh := 0
	for k := range p.order {
		if k%repeatEvery == repeatEvery-1 {
			p.order[k] = p.order[k-1-rng.Intn(min(k, repeatWindow))]
			continue
		}
		p.order[k] = int32(fresh % len(p.reqs))
		fresh++
	}
	return p, nil
}

// sendCursor hands each phase the next stretch of the send order, so
// every phase keeps sending requests the cache has not seen.
type sendCursor struct {
	pool *servePool
	next int
}

func (c *sendCursor) take(n int) func(k int) *request {
	base := c.next
	c.next += n
	return func(k int) *request { return c.pool.reqs[c.pool.order[(base+k)%len(c.pool.order)]] }
}

// node is one in-process server behind a loopback listener.
type node struct {
	srv *server.Server
	hs  *httptest.Server
}

func (n *node) close() {
	n.hs.Close()
	n.srv.Close()
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

func startNode(cfg server.Config) (*node, error) {
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	return &node{srv: s, hs: httptest.NewServer(s.Handler())}, nil
}

// registerRefs uploads every reference through POST /refs.
func registerRefs(ctx context.Context, hc *http.Client, base string, p *servePool) error {
	for i, name := range p.names {
		raw, err := json.Marshal(server.RefAddRequest{Name: name, Sequence: string(p.refs[i])})
		if err != nil {
			return err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/refs", bytes.NewReader(raw))
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("POST /refs %s: %d %s", name, resp.StatusCode, msg)
		}
	}
	return nil
}

// deployment is what a serving workload sends to.
type deployment struct {
	nodes []*node
	front *node // nil when requests go straight to nodes[0]
}

func (d *deployment) base() string {
	if d.front != nil {
		return d.front.hs.URL
	}
	return d.nodes[0].hs.URL
}

func (d *deployment) close() {
	if d.front != nil {
		d.front.close()
	}
	for _, n := range d.nodes {
		n.close()
	}
}

// deploy builds the nodes (and front) and registers the references.
func deploy(ctx context.Context, hc *http.Client, p *servePool, nodes int, front bool) (*deployment, error) {
	d := &deployment{}
	var ups []string
	for i := 0; i < nodes; i++ {
		n, err := startNode(server.Config{TraceBuffer: traceBuffer})
		if err != nil {
			d.close()
			return nil, err
		}
		d.nodes = append(d.nodes, n)
		ups = append(ups, n.hs.URL)
	}
	if front {
		f, err := startNode(server.Config{Proxy: server.ProxyConfig{Upstreams: ups}})
		if err != nil {
			d.close()
			return nil, err
		}
		d.front = f
	}
	if err := registerRefs(ctx, hc, d.base(), p); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// runServeShort drives an in-process node over loopback: rounds of a
// low-rate window, a high-rate window and a saturation slice.
func runServeShort(ctx context.Context, b *bench) error {
	pool, err := buildPool(b.seed)
	if err != nil {
		return err
	}
	b.note("refs", fmt.Sprintf("%d x %d bases", serveRefCount, serveRefLen))
	b.note("pool_requests", len(pool.reqs))
	b.note("rate_ladder_rps", map[string]float64{"low": ladder.low, "high": ladder.high})
	b.note("latency_limit_ms", latencyLimitMS)
	conns := runtime.GOMAXPROCS(0)
	b.note("connections", conns)
	hc := newHTTPClient(conns)
	defer hc.CloseIdleConnections()

	// Off the clock: every pool request answered once by a fresh node
	// and checked against direct Engine results; its normalised answer
	// is what every answer under load must equal.
	if err := verifyPool(ctx, b, pool); err != nil {
		return err
	}

	var d *deployment
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.close()
			d = nil
		}
		hc.CloseIdleConnections()
		liveHeapBytes()
		t0 := time.Now()
		if d, err = deploy(ctx, hc, pool, 1, false); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.close()
	b.set("setup_s", median(setups))
	b.set("heap_live_mb", liveHeapBytes()/1e6)

	g := &generator{ctx: ctx, b: b, hc: hc, conns: conns, cur: &sendCursor{pool: pool}}
	g.window(d.base(), ladder.low) // warm-up, not reported

	// The server counters and runtime costs cover the open-loop windows.
	roundTime := windowSends/ladder.low + windowSends/ladder.high + satSlice.Seconds()
	nRounds := max(3, int(b.seconds/roundTime))
	var lows, highs []openLoopResult
	var satRates []float64
	var counters serverCounters
	var rt runtimeSample
	servedBases := 0
	for r := 0; r < nRounds; r++ {
		for _, rung := range []struct {
			rate float64
			out  *[]openLoopResult
		}{{ladder.low, &lows}, {ladder.high, &highs}} {
			c0, rt0 := d.counters(), readRuntime()
			res, bases := g.window(d.base(), rung.rate)
			*rung.out = append(*rung.out, res)
			servedBases += bases
			counters = counters.add(d.counters().sub(c0))
			rt = rt.add(readRuntime().sub(rt0))
		}
		if r == nRounds-1 {
			if err := readServerSpans(ctx, b, hc, d); err != nil {
				return err
			}
		}
		satRates = append(satRates, g.saturate(d.base()))
	}
	b.set("bases_per_s", median(satRates))
	b.note("saturation_slices", len(satRates))
	b.note("windows_per_rung", nRounds)
	capacity := 0.0
	for _, x := range []struct {
		name string
		rate float64
		ws   []openLoopResult
	}{{"low", ladder.low, lows}, {"high", ladder.high, highs}} {
		st, err := setRungLatency(b, x.name, x.ws)
		if err != nil {
			return err
		}
		if st.sustained() {
			capacity = x.rate
		}
	}
	b.set("serve.capacity_rps", capacity)
	b.set("server.cache_hit_frac", counters.cacheHitFrac())
	b.set("server.batch_pairs_mean", counters.batchPairsMean())
	b.set("server.rejected_frac", counters.rejectedFrac())
	b.note("server_window", counters)
	b.set("go.gc_cpu_frac", rt.gcCPUFrac())
	b.set("engine.alloc_bytes_per_base", rt.allocBytes/float64(servedBases))

	if b.traced() {
		if err := measureProxy(ctx, b, g, pool); err != nil {
			return err
		}
		if err := measureTransport(ctx, b, pool); err != nil {
			return err
		}
		if err := measureServeLayers(ctx, b, pool); err != nil {
			return err
		}
	}
	return nil
}

// generator sends the pool's requests in send order.
type generator struct {
	ctx   context.Context
	b     *bench
	hc    *http.Client
	conns int
	cur   *sendCursor
}

// window is one open-loop window at rate; it returns the query bases
// the window completed.
func (g *generator) window(base string, rate float64) (openLoopResult, int) {
	pick := g.cur.take(windowSends)
	var bases atomic.Int64
	res := openLoop(g.ctx, rate, windowSends, g.conns, func(ctx context.Context, k int, _ time.Time) error {
		n, err := g.b.send(ctx, g.hc, base, pick(k))
		bases.Add(int64(n))
		return err
	})
	return res, int(bases.Load())
}

// saturate keeps one request per connection in flight for satSlice and
// returns the query bases completed per second.
func (g *generator) saturate(base string) float64 {
	pick := g.cur.take(scheduleLen / 32)
	return closedLoop(g.ctx, satSlice, g.conns, func(ctx context.Context, k int) (int, error) {
		return g.b.send(ctx, g.hc, base, pick(k))
	})
}

// measureProxy puts a consistent-hash front before two fresh nodes and
// sends low-rate windows alternately through the front and straight to
// a node: the difference of the medians is the hop the front adds, and
// the front's forward counts give the busiest node's share.
func measureProxy(ctx context.Context, b *bench, g *generator, p *servePool) error {
	d, err := deploy(ctx, g.hc, p, 2, true)
	if err != nil {
		return err
	}
	defer d.close()
	p0 := d.proxied()
	var viaFront, direct []openLoopResult
	for r := 0; r < proxyRounds; r++ {
		res, _ := g.window(d.base(), ladder.low)
		viaFront = append(viaFront, res)
		res, _ = g.window(d.nodes[0].hs.URL, ladder.low)
		direct = append(direct, res)
	}
	f, err := rungStatsOf(viaFront)
	if err != nil {
		return fmt.Errorf("front windows: %w", err)
	}
	dr, err := rungStatsOf(direct)
	if err != nil {
		return fmt.Errorf("direct windows: %w", err)
	}
	b.set("proxy.hop_us", (f.p50-dr.p50)*1e3)
	shares := d.proxied()
	var total, most float64
	for i := range shares {
		v := float64(shares[i] - p0[i])
		total += v
		most = max(most, v)
	}
	b.set("proxy.node_share_max", most/total)
	return nil
}

// rungStats summarises one rung's windows: the median over windows of
// each window's percentiles, so a burst of machine noise in one window
// does not move the rung.
type rungStats struct {
	p50, p99    float64
	sends, late int
	failed      int
	backlogMS   float64
}

// sustained applies the capacity rule: p99 within the latency limit,
// nothing failed, at most maxLateFrac of sends late and no backlog.
func (s rungStats) sustained() bool {
	return s.failed == 0 && s.p99 <= latencyLimitMS && s.backlogMS <= latencyLimitMS &&
		float64(s.late) <= maxLateFrac*float64(s.sends)
}

func rungStatsOf(ws []openLoopResult) (rungStats, error) {
	var st rungStats
	var p50s, p99s, backlogs []float64
	for _, w := range ws {
		s := summarize(w.LatencyMS)
		p50, ok50 := s.P[50]
		p99, ok99 := s.P[99]
		if !ok50 || !ok99 {
			return st, fmt.Errorf("%d sends do not support p99", s.N)
		}
		p50s, p99s, backlogs = append(p50s, p50), append(p99s, p99), append(backlogs, w.BacklogMS)
		st.sends += s.N
		st.late += w.Late
		st.failed += w.Failed
	}
	st.p50, st.p99, st.backlogMS = median(p50s), median(p99s), median(backlogs)
	if math.IsInf(st.p99, 1) {
		return st, fmt.Errorf("more than 1%% of sends failed")
	}
	return st, nil
}

// setRungLatency reports one rung's latency and lateness.
func setRungLatency(b *bench, name string, ws []openLoopResult) (rungStats, error) {
	st, err := rungStatsOf(ws)
	if err != nil {
		return st, fmt.Errorf("%s rung: %w", name, err)
	}
	b.set("p50_ms."+name, st.p50)
	b.set("p99_ms."+name, st.p99)
	b.note("latency_samples."+name, fmt.Sprintf("%d windows x %d sends", len(ws), windowSends))
	var p99s []string
	for _, w := range ws {
		p99s = append(p99s, fmt.Sprintf("%.2f", summarize(w.LatencyMS).P[99]))
	}
	b.note("window_p99_ms."+name, strings.Join(p99s, " "))
	b.note("late_frac."+name, float64(st.late)/float64(st.sends))
	b.set("loadgen.late_frac."+name, float64(st.late)/float64(st.sends))
	if name == "high" {
		b.set("loadgen.backlog_ms.high", st.backlogMS)
	}
	return st, nil
}
