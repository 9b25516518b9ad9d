package minimap

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"genasm/internal/dna"
	"genasm/internal/readsim"
)

// This file keeps the straightforward implementation of seeding and
// chaining as a test-only oracle: a k-mer candidate array scanned by a
// growing deque, a map-of-slices index, and a chaining DP that calls
// math.Log2 for every predecessor. The production code must return
// bit-identical chains and candidates.

type oracleIndex struct {
	k, w, refLen int
	table        map[uint64][]uint32
}

func oracleMinimizers(seq []byte, k, w int) []Minimizer {
	if k < 1 || k > 28 || w < 1 || len(seq) < k {
		return nil
	}
	type cand struct {
		hash uint64
		pos  int32
		rev  bool
	}
	mask := uint64(1)<<(2*uint(k)) - 1
	shift := 2 * uint(k-1)
	var fwd, rev uint64
	valid := 0
	var cands []cand
	for i := 0; i < len(seq); i++ {
		b := seq[i]
		if b >= 4 {
			valid = 0
			fwd, rev = 0, 0
			continue
		}
		fwd = (fwd<<2 | uint64(b)) & mask
		rev = rev>>2 | uint64(3-b)<<shift
		valid++
		if valid < k {
			continue
		}
		pos := int32(i - k + 1)
		if fwd == rev {
			cands = append(cands, cand{hash: invalidHash, pos: pos})
			continue
		}
		h, r := fwd, false
		if rev < fwd {
			h, r = rev, true
		}
		cands = append(cands, cand{hash: hash64(h, mask), pos: pos, rev: r})
	}
	var out []Minimizer
	var deque []cand
	lastEmitted := int32(-1)
	for i, c := range cands {
		for len(deque) > 0 && deque[len(deque)-1].hash >= c.hash {
			deque = deque[:len(deque)-1]
		}
		deque = append(deque, c)
		lo := max(i-w+1, 0)
		for deque[0].pos < cands[lo].pos {
			deque = deque[1:]
		}
		if i >= w-1 {
			m := deque[0]
			if m.hash != invalidHash && m.pos != lastEmitted {
				lastEmitted = m.pos
				out = append(out, Minimizer{Hash: m.hash, Pos: m.pos, Rev: m.rev})
			}
		}
	}
	if len(out) == 0 && len(deque) > 0 && deque[0].hash != invalidHash {
		m := deque[0]
		out = append(out, Minimizer{Hash: m.hash, Pos: m.pos, Rev: m.rev})
	}
	return out
}

func oracleBuild(ref []byte, cfg IndexConfig) *oracleIndex {
	if cfg.MaxOccurrences <= 0 {
		cfg.MaxOccurrences = 64
	}
	ix := &oracleIndex{k: cfg.K, w: cfg.W, refLen: len(ref), table: map[uint64][]uint32{}}
	for _, m := range oracleMinimizers(ref, cfg.K, cfg.W) {
		v := uint32(m.Pos) << 1
		if m.Rev {
			v |= 1
		}
		ix.table[m.Hash] = append(ix.table[m.Hash], v)
	}
	for h, occ := range ix.table {
		if len(occ) > cfg.MaxOccurrences {
			delete(ix.table, h)
		}
	}
	return ix
}

func (ix *oracleIndex) anchors(read []byte) (fwd, rev []anchor) {
	readLen := int32(len(read))
	for _, m := range oracleMinimizers(read, ix.k, ix.w) {
		for _, v := range ix.table[m.Hash] {
			tpos := int32(v >> 1)
			if m.Rev == (v&1 == 1) {
				fwd = append(fwd, anchor{tpos: tpos, rpos: m.Pos})
			} else {
				rev = append(rev, anchor{tpos: tpos, rpos: readLen - (m.Pos + int32(ix.k))})
			}
		}
	}
	for _, a := range [][]anchor{fwd, rev} {
		sort.Slice(a, func(i, j int) bool {
			if a[i].tpos != a[j].tpos {
				return a[i].tpos < a[j].tpos
			}
			return a[i].rpos < a[j].rpos
		})
	}
	return fwd, rev
}

func oracleGapCost(dd, k int) float64 {
	if dd == 0 {
		return 0
	}
	return 0.01*float64(k)*float64(dd) + 0.5*math.Log2(float64(dd)+1)
}

func oracleChainStrand(a []anchor, k int, opt ChainOpts, rev bool) []Chain {
	n := len(a)
	if n == 0 {
		return nil
	}
	score := make([]float64, n)
	prev := make([]int32, n)
	for i := 0; i < n; i++ {
		score[i] = float64(k)
		prev[i] = -1
		for j := i - 1; j >= max(i-opt.MaxLookback, 0); j-- {
			dt := int(a[i].tpos - a[j].tpos)
			dr := int(a[i].rpos - a[j].rpos)
			if dr <= 0 || dt <= 0 || dt > opt.MaxGap || dr > opt.MaxGap {
				continue
			}
			dd := dt - dr
			if dd < 0 {
				dd = -dd
			}
			gain := float64(min(dr, dt, k)) - oracleGapCost(dd, k)
			if s := score[j] + gain; s > score[i] {
				score[i] = s
				prev[i] = int32(j)
			}
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return score[order[x]] > score[order[y]] })
	used := make([]bool, n)
	var chains []Chain
	for _, end := range order {
		if used[end] || score[end] < opt.MinScore {
			continue
		}
		cnt, i, last := 0, end, end
		for i >= 0 && !used[i] {
			used[i] = true
			cnt++
			last = i
			i = int(prev[i])
		}
		if cnt < opt.MinAnchors {
			continue
		}
		chains = append(chains, Chain{
			Score:     score[end],
			ReadStart: int(a[last].rpos),
			ReadEnd:   int(a[end].rpos) + k,
			RefStart:  int(a[last].tpos),
			RefEnd:    int(a[end].tpos) + k,
			RevComp:   rev,
			Anchors:   cnt,
		})
		if !opt.All {
			break
		}
	}
	return chains
}

func (ix *oracleIndex) chains(read []byte, opt ChainOpts) []Chain {
	fwd, rev := ix.anchors(read)
	chains := oracleChainStrand(fwd, ix.k, opt, false)
	chains = append(chains, oracleChainStrand(rev, ix.k, opt, true)...)
	sort.Slice(chains, func(i, j int) bool { return chains[i].Score > chains[j].Score })
	return chains
}

func (ix *oracleIndex) locate(read []byte, opt ChainOpts, flank int) []Candidate {
	chains := ix.chains(read, opt)
	out := make([]Candidate, 0, len(chains))
	for _, c := range chains {
		start := max(c.RefStart-c.ReadStart, 0)
		end := min(c.RefEnd+(len(read)-c.ReadEnd)+flank, ix.refLen)
		if end <= start {
			continue
		}
		out = append(out, Candidate{RefStart: start, RefEnd: end, RevComp: c.RevComp, Score: c.Score})
	}
	return out
}

// diffChains reports the first difference between two chain lists, with
// scores compared bit for bit; "" means identical.
func diffChains(got, want []Chain) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d chains, oracle %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Sprintf("chain %d: score %v, oracle %v", i, g.Score, w.Score)
		}
		g.Score, w.Score = 0, 0
		if g != w {
			return fmt.Sprintf("chain %d: %+v, oracle %+v", i, g, w)
		}
	}
	return ""
}

// diffCandidates is diffChains for Locate's output.
func diffCandidates(got, want []Candidate) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d candidates, oracle %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Sprintf("candidate %d: score %v, oracle %v", i, g.Score, w.Score)
		}
		g.Score, w.Score = 0, 0
		if g != w {
			return fmt.Sprintf("candidate %d: %+v, oracle %+v", i, g, w)
		}
	}
	return ""
}

// checkAgainstOracle compares every public output of the index for one
// read (base codes) with the oracle's.
func checkAgainstOracle(t *testing.T, ix *Index, or *oracleIndex, read []byte, opt ChainOpts) {
	t.Helper()
	if d := diffChains(ix.Chains(read, opt), or.chains(read, opt)); d != "" {
		t.Fatalf("Chains (len %d, opt %+v): %s", len(read), opt, d)
	}
	want := or.locate(read, opt, 100)
	if d := diffCandidates(ix.Locate(read, opt, 100), want); d != "" {
		t.Fatalf("Locate (len %d, opt %+v): %s", len(read), opt, d)
	}
	if d := diffCandidates(ix.LocateRaw(dna.DecodeSeq(read), opt, 100), want); d != "" {
		t.Fatalf("LocateRaw (len %d, opt %+v): %s", len(read), opt, d)
	}
	if got, want := Minimizers(read, ix.K, ix.W), oracleMinimizers(read, ix.K, ix.W); !slices.Equal(got, want) {
		t.Fatalf("Minimizers (len %d): %d minimizers, oracle %d", len(read), len(got), len(want))
	}
}

// buildBoth indexes ref with the production index and the oracle and
// checks they hold the same seeds.
func buildBoth(t testing.TB, ref []byte, cfg IndexConfig) (*Index, *oracleIndex) {
	t.Helper()
	ix, err := BuildIndex(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	or := oracleBuild(ref, cfg)
	if ix.Seeds() != len(or.table) {
		t.Fatalf("Seeds() = %d, oracle %d", ix.Seeds(), len(or.table))
	}
	for h, occ := range or.table {
		if got := ix.occurrences(h); !slices.Equal(got, occ) {
			t.Fatalf("occurrences(%#x) = %v, oracle %v", h, got, occ)
		}
	}
	return ix, or
}

func simulated(t *testing.T, ref []byte, n int, p readsim.Profile, seed int64) [][]byte {
	t.Helper()
	reads, err := readsim.Simulate(dna.DecodeSeq(ref), n, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(reads))
	for i, r := range reads {
		out[i] = dna.EncodeSeq(r.Seq)
	}
	return out
}

func TestLocateMatchesOracle(t *testing.T) {
	ref := codes(400000, 21)
	ix, or := buildBoth(t, ref, DefaultIndexConfig())
	long := readsim.PacBioCLR()
	long.LengthSD = 0
	reads := simulated(t, ref, 12, long, 22)
	reads = append(reads, simulated(t, ref, 40, readsim.Illumina(), 23)...)
	// Both strands of every read, whatever strand it was drawn from.
	for _, r := range reads[:len(reads):len(reads)] {
		reads = append(reads, dna.ReverseComplement(r))
	}
	// N runs inside a read, and reads shorter than k or empty.
	withN := slices.Clone(reads[0])
	for i := 1000; i < 1040; i++ {
		withN[i] = 4
	}
	for i := 5000; i < len(withN); i += 97 {
		withN[i] = 4
	}
	reads = append(reads, withN, ref[7000:7014], ref[100:101], nil)

	for _, r := range reads {
		checkAgainstOracle(t, ix, or, r, DefaultChainOpts())
	}
	primary := DefaultChainOpts()
	primary.All = false
	for _, r := range reads[:5] {
		checkAgainstOracle(t, ix, or, r, primary)
	}
}

func TestLocateMatchesOracleLongGaps(t *testing.T) {
	// A read spliced from two distant reference segments puts gaps far
	// beyond the tabulated range into the DP, which must then fall back
	// to math.Log2.
	ref := codes(200000, 24)
	ix, or := buildBoth(t, ref, DefaultIndexConfig())
	opt := DefaultChainOpts()
	opt.MaxGap, opt.MaxLookback = 20000, 400
	for _, cut := range []int{6000, 9000, 15000} {
		read := append(slices.Clone(ref[30000:33000]), ref[33000+cut:36000+cut]...)
		checkAgainstOracle(t, ix, or, read, opt)
		checkAgainstOracle(t, ix, or, dna.ReverseComplement(read), opt)
	}
}

func TestLocateMatchesOracleTandemRepeat(t *testing.T) {
	// Every seed of a tandem repeat occurs once per copy; with fewer
	// copies than MaxOccurrences they all survive, so chaining sees many
	// equal-scoring anchors and the tie order is exercised.
	unit := codes(300, 25)
	var ref []byte
	for i := 0; i < 50; i++ {
		ref = append(ref, unit...)
	}
	ref = append(ref, codes(20000, 26)...)
	cfg := IndexConfig{K: 15, W: 10, MaxOccurrences: 64}
	ix, or := buildBoth(t, ref, cfg)
	if ix.Seeds() == 0 {
		t.Fatal("tandem repeat under MaxOccurrences left no seeds")
	}
	for _, r := range [][]byte{ref[1000:2500], ref[14000:15600], ref[100:250], dna.ReverseComplement(ref[2000:4000])} {
		checkAgainstOracle(t, ix, or, r, DefaultChainOpts())
	}
	// The same reference with fewer copies allowed drops the repeat.
	cfg.MaxOccurrences = 20
	ix, or = buildBoth(t, ref, cfg)
	checkAgainstOracle(t, ix, or, ref[14000:16000], DefaultChainOpts())
}

// fuzzCodes maps arbitrary bytes to base codes, with about one N in 16.
func fuzzCodes(b []byte) []byte {
	out := make([]byte, len(b))
	for i, c := range b {
		if c >= 0xf0 {
			out[i] = 4
		} else {
			out[i] = c & 3
		}
	}
	return out
}

func FuzzLocate(f *testing.F) {
	f.Add([]byte("ACGTTGCAAGGCTTAGCCATGACCGTAAGTTCGATCGGATCCTAGGCATCAGT"), []byte("GGCTTAGCCATGACC"), uint8(5), uint8(3), uint16(5000), uint16(10))
	f.Add(bytes.Repeat([]byte("ACGTTGCA"), 40), []byte("TTGCAACGTTGCAACG"), uint8(4), uint8(2), uint16(100), uint16(0))
	f.Add(codes(3000, 27), []byte{}, uint8(15), uint8(10), uint16(20000), uint16(700))
	f.Fuzz(func(t *testing.T, refB, readB []byte, k, w uint8, maxGap, cut uint16) {
		if len(refB) > 1<<14 || len(readB) > 1<<12 {
			return
		}
		ref := fuzzCodes(refB)
		cfg := IndexConfig{K: 1 + int(k)%28, W: 1 + int(w)%16, MaxOccurrences: 1 + int(k)%9}
		ix, or := buildBoth(t, ref, cfg)
		// Seed hits need shared sequence: splice a stretch of the
		// reference in front of the read.
		read := fuzzCodes(readB)
		if len(ref) > 0 {
			lo := int(cut) % len(ref)
			hi := min(lo+len(readB)+int(cut)%512, len(ref))
			read = append(slices.Clone(ref[lo:hi]), read...)
		}
		for _, opt := range []ChainOpts{
			{MaxGap: int(maxGap), MaxLookback: 64, MinScore: 40, MinAnchors: 3, All: true},
			{MaxGap: int(maxGap), MaxLookback: 1 + int(cut)%200, MinScore: 0, MinAnchors: 1, All: w&1 == 0},
		} {
			checkAgainstOracle(t, ix, or, read, opt)
			checkAgainstOracle(t, ix, or, dna.ReverseComplement(read), opt)
		}
	})
}
