package minimap

import (
	"math"
	"sort"
	"sync"

	"genasm/internal/dna"
)

// Chain is one co-linear group of seed hits: a candidate mapping location.
type Chain struct {
	Score float64
	// Read/Ref spans covered by the chained anchors (k-mer end included).
	ReadStart, ReadEnd int
	RefStart, RefEnd   int
	// RevComp reports that the read maps to the reverse strand; read
	// coordinates are then in the reverse-complemented read.
	RevComp bool
	Anchors int
}

// ChainOpts controls chaining, mirroring minimap2's knobs.
type ChainOpts struct {
	// MaxGap is the largest gap (read or reference) bridged inside one
	// chain.
	MaxGap int
	// MaxLookback bounds the chaining DP's predecessor scan.
	MaxLookback int
	// MinScore discards weak chains.
	MinScore float64
	// MinAnchors discards chains with fewer seed hits.
	MinAnchors int
	// All reports every chain (minimap2 -P), not just the primary.
	All bool
}

// DefaultChainOpts mirrors minimap2 map-pb with -P.
func DefaultChainOpts() ChainOpts {
	return ChainOpts{MaxGap: 5000, MaxLookback: 64, MinScore: 40, MinAnchors: 3, All: true}
}

// scratch holds one call's working buffers. Calls take one from
// scratchPool and return it, so steady-state seeding and chaining
// allocate nothing while the Index itself stays read-only and shared.
type scratch struct {
	enc      []byte // LocateRaw's encoded read
	ring     []kmerCand
	mins     []Minimizer
	fwd, rev []anchor
	score    []float64
	prev     []int32
	order    []int
	used     []bool
	chains   []Chain
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// resize returns buf with length n, reallocating only to grow.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// chainStrand runs the minimap2 chaining DP over one strand's anchors and
// appends the chains it extracts to dst.
func chainStrand(dst []Chain, a []anchor, k int, opt ChainOpts, rev bool, s *scratch) []Chain {
	n := len(a)
	if n == 0 {
		return dst
	}
	s.score = resize(s.score, n)
	s.prev = resize(s.prev, n)
	score, prev := s.score, s.prev
	for i := 0; i < n; i++ {
		best, from := float64(k), int32(-1)
		lo := max(i-opt.MaxLookback, 0)
		for j := i - 1; j >= lo; j-- {
			dt := int(a[i].tpos - a[j].tpos)
			if dt > opt.MaxGap {
				break // anchors are sorted by tpos, so dt only grows
			}
			dr := int(a[i].rpos - a[j].rpos)
			if dr <= 0 || dt <= 0 || dr > opt.MaxGap {
				continue
			}
			match := float64(min(dr, dt, k))
			// The gap cost is >= 0 and float rounding is monotone, so a
			// predecessor that cannot win even without it never wins.
			if score[j]+match <= best {
				continue
			}
			dd := dt - dr
			if dd < 0 {
				dd = -dd
			}
			if sc := score[j] + (match - gapCost(dd, k)); sc > best {
				best, from = sc, int32(j)
			}
		}
		score[i], prev[i] = best, from
	}
	// Extract chains best-first; each anchor belongs to one chain. Ties
	// in score are broken by sort.Slice's fixed visiting order, which
	// therefore decides the output and must not change.
	s.order = resize(s.order, n)
	order := s.order
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool { return score[order[x]] > score[order[y]] })
	s.used = resize(s.used, n)
	used := s.used
	clear(used)
	for _, end := range order {
		if used[end] || score[end] < opt.MinScore {
			continue
		}
		cnt := 0
		i := end
		last := end
		for i >= 0 && !used[i] {
			used[i] = true
			cnt++
			last = i
			i = int(prev[i])
		}
		if cnt < opt.MinAnchors {
			continue
		}
		//lint:allow hotalloc appends into the pooled chain buffer; amortized to zero across reads
		dst = append(dst, Chain{
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
	return dst
}

// halfLog2 tabulates gapCost's log term, 0.5*log2(dd+1), for every dd up
// to the default MaxGap. Each entry is computed by the same expression
// gapCost would evaluate, so the lookup is bit-identical.
var halfLog2 = func() []float64 {
	t := make([]float64, DefaultChainOpts().MaxGap+1)
	for dd := range t {
		t[dd] = 0.5 * math.Log2(float64(dd)+1)
	}
	return t
}()

// gapCost is minimap2's concave chaining gap penalty.
func gapCost(dd, k int) float64 {
	if dd == 0 {
		return 0
	}
	lg := 0.0
	if dd < len(halfLog2) {
		lg = halfLog2[dd]
	} else {
		lg = 0.5 * math.Log2(float64(dd)+1)
	}
	return 0.01*float64(k)*float64(dd) + lg
}

// Chains seeds and chains a read (base codes) against the index, returning
// all chains on both strands, best first.
func (ix *Index) Chains(read []byte, opt ChainOpts) []Chain {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return append([]Chain(nil), ix.chains(read, opt, s)...)
}

// chains is Chains into s.chains.
func (ix *Index) chains(read []byte, opt ChainOpts, s *scratch) []Chain {
	fwd, rev := ix.anchors(read, s)
	chains := chainStrand(s.chains[:0], fwd, ix.K, opt, false, s)
	chains = chainStrand(chains, rev, ix.K, opt, true, s)
	sort.Slice(chains, func(i, j int) bool { return chains[i].Score > chains[j].Score })
	s.chains = chains
	return chains
}

// Candidate is a reference region a read should be aligned against.
type Candidate struct {
	RefStart, RefEnd int
	RevComp          bool
	Score            float64
}

// Locate converts chains into alignment candidate regions: the region
// start is anchored exactly by the chain's first anchor (the k-mer match
// pins the read's start on the reference to within indel drift), and the
// region is extended so the whole read fits plus a trailing flank. The
// head is NOT flanked: GenASM-style aligners treat the region start as the
// alignment start and only the tail as free slack.
func (ix *Index) Locate(read []byte, opt ChainOpts, flank int) []Candidate {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return ix.locate(read, opt, flank, s)
}

// LocateRaw is Locate on a raw ASCII read.
func (ix *Index) LocateRaw(read []byte, opt ChainOpts, flank int) []Candidate {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.enc = resize(s.enc, len(read))
	for i, b := range read {
		s.enc[i] = dna.Encode(b)
	}
	return ix.locate(s.enc, opt, flank, s)
}

func (ix *Index) locate(read []byte, opt ChainOpts, flank int, s *scratch) []Candidate {
	chains := ix.chains(read, opt, s)
	out := make([]Candidate, 0, len(chains))
	for _, c := range chains {
		start := c.RefStart - c.ReadStart
		if start < 0 {
			start = 0
		}
		end := c.RefEnd + (len(read) - c.ReadEnd) + flank
		if end > ix.RefLen {
			end = ix.RefLen
		}
		if end <= start {
			continue
		}
		//lint:allow hotalloc out is presized to len(chains), so this never grows
		out = append(out, Candidate{RefStart: start, RefEnd: end, RevComp: c.RevComp, Score: c.Score})
	}
	return out
}
