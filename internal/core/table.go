package core

import (
	"fmt"

	"genasm/internal/stats"
)

// table is the stored DP working set of one window: everything the traceback
// is allowed to read, laid out as flat little-endian uint64 rows shared by
// the single-word (m <= 64) and multi-word (m > 64) kernels. Depending on
// the configuration a row stores per text position i in 1..n either the
// entry bitvector R[d][i] (SENE), a packed (2k+3)-bit diagonal band of it
// (SENE+DENT), or the four edge bitvectors match/substitution/deletion/
// insertion (neither; the unimproved layout).
//
// Layouts by mode, all within rows[d] (stride words per entry):
//
//	entries, unpacked:  stride = wpe        full R[d][i] words
//	entries, packed:    stride = bandWords  bits [bandLo(i), bandLo(i)+bandB)
//	edges:              stride = 4*wpe      M, S, D, I, wpe words each
//
// The single-word path always stores its one full automaton word (packing a
// sub-word band would not shrink a uint64 slot); DENT there is enforced at
// read time — out-of-band queries answer "inactive" — and in the footprint
// accounting, which charges only the band bits, as a packed hardware
// implementation would allocate. The multi-word path packs for real: when
// the band needs fewer words than the full state, only the band words are
// extracted and stored, cutting the stored working set ~wpe/bandWords x.
type table struct {
	m, n, k int
	entries bool // SENE: entry storage vs edge storage
	banded  bool // DENT: reads outside the (2k+3)-bit diagonal band answer inactive
	packed  bool // banded storage physically holds band words (bandWords < wpe)
	bandB   int  // band width in bits when banded
	wpe     int  // words per full automaton state: wordsFor(m), 1 for m <= 64
	stride  int  // stored words per entry (entries mode) or 4*wpe (edge mode)
	// storeBytes is the size of one stored entry as packed in memory:
	// banded entries round the band up to whole bytes, full entries are
	// wpe 64-bit words.
	storeBytes uint64
	rows       [][]uint64
}

// bandLo returns the lowest pattern bit index readable for text position i:
// the traceback diagonal at i minus the band's half width.
func (t *table) bandLo(i int) int { return (t.m - 1 - t.n + i) - (t.k + 1) }

// entryBit returns bit j of R[d][i], reading stored state. Queries outside
// the automaton (j < 0 fresh start, j >= m, i == 0 initial state, or outside
// the stored band) are answered from the closed-form padding rules.
func (t *table) entryBit(d, i, j int, c *stats.Counters) uint64 {
	switch {
	case j < 0:
		return 0 // fresh start: the empty pattern prefix is always active
	case j >= t.m:
		return 1
	case i == 0:
		if j < d {
			return 0 // j+1 deletions
		}
		return 1
	}
	c.AddRead(1, t.storeBytes)
	if t.banded {
		b := j - t.bandLo(i)
		if b < 0 || b >= t.bandB {
			return 1 // outside the traceback-reachable band
		}
		if t.packed {
			return t.rows[d][(i-1)*t.stride+b>>6] >> (uint(b) & 63) & 1
		}
	}
	return t.rows[d][(i-1)*t.stride+j>>6] >> (uint(j) & 63) & 1
}

// edge indices within an edge-mode entry.
const (
	edgeM = 0
	edgeS = 1
	edgeD = 2
	edgeI = 3
)

// edgeBit returns bit j of the stored edge vector (edge-mode tables only).
func (t *table) edgeBit(e, d, i, j int, c *stats.Counters) uint64 {
	c.AddRead(1, 8)
	return t.rows[d][(4*(i-1)+e)*t.wpe+j>>6] >> (uint(j) & 63) & 1
}

// live reports whether state R[d][i] bit j is active in the stored table,
// without counting the reads: entry tables answer from the stored entry,
// edge tables from the AND of the four stored edges.
func (t *table) live(d, i, j int) bool {
	switch {
	case t.entries:
		return t.entryBit(d, i, j, nil) == 0
	case j < 0:
		return true
	case i == 0:
		return j < d
	}
	return t.edgeBit(edgeM, d, i, j, nil)&t.edgeBit(edgeS, d, i, j, nil)&
		t.edgeBit(edgeD, d, i, j, nil)&t.edgeBit(edgeI, d, i, j, nil) == 0
}

// checkWalkEnd validates the state (i, j, d) a traceback from level dStar
// stopped on. A walk that ran to the pattern's start must have spent the
// whole distance; a commit-bounded walk must stand on a state the stored
// table holds as active.
func (t *table) checkWalkEnd(i, j, d, dStar int) error {
	if j < 0 {
		if d != 0 {
			return fmt.Errorf("core: traceback cost %d != distance %d", dStar-d, dStar)
		}
		return nil
	}
	if !t.live(d, i, j) {
		return fmt.Errorf("core: bounded traceback stopped on inactive state i=%d j=%d d=%d (table %dx%d k=%d)", i, j, d, t.n, t.m, t.k)
	}
	return nil
}

// extract64 returns the 64 bits [lo, lo+64) of the m-bit automaton state
// words (little-endian, normalized: bits at and above m are zero in the
// last word). Bit positions outside [0, m) read as 1, the GenASM "inactive"
// padding, so band words sliced past either end of the pattern behave like
// closed-form automaton state.
func extract64(words []uint64, lo, m int) uint64 {
	wlo := lo >> 6 // floor division, also for negative lo
	sh := uint(lo - wlo*64)
	out := extractWord(words, wlo, m) >> sh
	if sh > 0 {
		out |= extractWord(words, wlo+1, m) << (64 - sh)
	}
	return out
}

// extractWord returns word wi of the m-bit state with out-of-range and
// above-m bits reading as 1.
func extractWord(words []uint64, wi, m int) uint64 {
	if wi < 0 || wi >= len(words) {
		return ^uint64(0)
	}
	w := words[wi]
	if hi := m - 64*wi; hi < 64 {
		w |= ^uint64(0) << uint(hi)
	}
	return w
}

// tableScratch owns the reusable stored-table buffers of one windowAligner,
// shared by both word paths (a W > 64 pipeline still runs its final short
// window through the single-word kernel). Not safe for concurrent use.
type tableScratch struct {
	tbl    table
	rows   [][]uint64
	back   [][]uint64  // backing rows, grown on demand
	rowBuf [2][]uint64 // edge-mode working rows (single-word path)
}

// row hands out working row `which` with capacity for n words (edge mode
// keeps full automaton rows outside the stored table).
func (s *tableScratch) row(which, n int) []uint64 {
	if cap(s.rowBuf[which]) < n {
		s.rowBuf[which] = make([]uint64, n)
	}
	return s.rowBuf[which][:n]
}

// tableRow hands out the reusable backing slice for table row d, words
// uint64s wide. Every element is overwritten by the caller's text loop, so
// stale words from the previous window are never read.
func (s *tableScratch) tableRow(d, words int) []uint64 {
	for len(s.back) <= d {
		//lint:allow hotalloc one-time scratch growth per new error depth, amortized to zero across windows
		s.back = append(s.back, nil)
	}
	if cap(s.back[d]) < words {
		s.back[d] = make([]uint64, words)
	}
	return s.back[d][:words]
}
