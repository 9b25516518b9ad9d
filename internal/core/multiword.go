package core

import (
	"fmt"

	"genasm/internal/cigar"
	"genasm/internal/dna"
)

// Multi-word window path: the same improved GenASM algorithm for windows
// wider than one machine word (64 < W). The automaton rows are vecs of
// wordsFor(m) uint64s; the structure of the distance calculation, early
// termination and traceback is identical to the single-word fast path in
// dc64.go, and both paths share the flat stored-table layout in table.go.
//
// DENT here is real at the storage level: when the (2k+3)-bit diagonal band
// needs fewer words than the full automaton state, only the band words are
// extracted (extract64) and stored per entry, so the stored working set
// shrinks from wpe = wordsFor(m) words per entry to ceil((2k+3)/64) — one word
// for every default-band configuration. The traceback indexes into the band
// through table.entryBit's packed path.

type masksMW struct {
	pm [dna.Alphabet]vec
	m  int
}

// ensureV makes *v a width-m vector, reusing its backing words whenever
// their capacity suffices (the final partial window of every alignment
// has a smaller m, so an equality check alone would rebuild all scratch
// twice per Align call). The resized vector's bits are unspecified;
// every caller fully overwrites it before reading.
func ensureV(v *vec, m int) {
	words := wordsFor(m)
	if v.width == m && len(v.w) == words {
		return
	}
	if cap(v.w) >= words {
		v.width = m
		v.w = v.w[:words]
		return
	}
	*v = newVec(m)
}

// buildInto (re)builds the pattern masks for pRev in place.
func (mk *masksMW) buildInto(pRev []byte) {
	m := len(pRev)
	mk.m = m
	for c := 0; c < dna.Alphabet; c++ {
		ensureV(&mk.pm[c], m)
		mk.pm[c].fill(true)
	}
	for j, pc := range pRev {
		if pc != dna.N {
			mk.pm[pc].setBit(j, 0)
		}
	}
}

// initRowInto writes the error-level-d initial automaton state into v
// (v must already have width mk.m).
func (mk *masksMW) initRowInto(v vec, d int) {
	v.fill(true)
	for j := 0; j < d && j < mk.m; j++ {
		v.setBit(j, 0)
	}
}

// mwScratch holds the per-aligner working state of the multi-word path:
// the full automaton rows the recurrence runs on (the stored table holds
// only what the traceback may read, which in banded mode is narrower than
// the recurrence needs) and the edge-mode temporaries.
type mwScratch struct {
	rowPrev, rowCur []vec
	tM, tS, tD, tI  vec
	mk              masksMW // pattern masks, rebuilt in place per window
}

func (s *mwScratch) prepare(m, n int) {
	need := n + 1
	if cap(s.rowPrev) < need {
		grown := make([]vec, need)
		copy(grown, s.rowPrev)
		s.rowPrev = grown
		grown = make([]vec, need)
		copy(grown, s.rowCur)
		s.rowCur = grown
	} else {
		s.rowPrev = s.rowPrev[:need]
		s.rowCur = s.rowCur[:need]
	}
	for i := 0; i < need; i++ {
		ensureV(&s.rowPrev[i], m)
		ensureV(&s.rowCur[i], m)
	}
	ensureV(&s.tM, m)
	ensureV(&s.tS, m)
	ensureV(&s.tD, m)
	ensureV(&s.tI, m)
}

// alignWindowMW aligns the reversed window buffers of w at error budget k.
// The masks in w.mw.mk must already be built for the current pattern.
func (w *windowAligner) alignWindowMW(k int) (int, cigar.Cigar, int, bool, error) {
	mk := &w.mw.mk
	m, n := mk.m, len(w.tRevBuf)
	cfg := w.cfg
	wpe := wordsFor(m)
	t := &w.ts.tbl
	*t = table{
		m: m, n: n, k: k,
		entries: !cfg.DisableSENE,
		banded:  !cfg.DisableDENT,
		wpe:     wpe,
		rows:    w.ts.rows[:0],
	}
	entryBits := uint64(m)
	t.stride = wpe
	t.storeBytes = 8 * uint64(wpe)
	if t.banded {
		t.bandB = 2*k + 3
		entryBits = uint64(t.bandB)
		t.storeBytes = uint64(t.bandB+7) / 8
		if bw := (t.bandB + 63) / 64; bw < wpe {
			t.packed = true
			t.stride = bw
		}
	}
	if !t.entries {
		t.stride = 4 * wpe
	}

	w.mw.prepare(m, n)
	rowPrev, rowCur := w.mw.rowPrev, w.mw.rowCur

	solved := -1
	for d := 0; d <= k; d++ {
		mk.initRowInto(rowCur[0], d)
		drow := w.ts.tableRow(d, t.stride*n)
		if t.entries {
			// Fused kernel: one pass over the words per text position
			// computes M & S & D & I with the shift carries propagated
			// in registers, instead of four temporary-vector passes.
			for i := 1; i <= n; i++ {
				pmw := mk.pm[w.tRevBuf[i-1]].w
				prevW := rowCur[i-1].w
				curW := rowCur[i].w
				if d == 0 {
					var cp uint64
					for wi := range curW {
						pw := prevW[wi]
						curW[wi] = (pw<<1 | cp) | pmw[wi]
						cp = pw >> 63
					}
				} else {
					upW := rowPrev[i-1].w
					urW := rowPrev[i].w
					var cp, cu, cr uint64
					for wi := range curW {
						pw, uw, rw := prevW[wi], upW[wi], urW[wi]
						curW[wi] = ((pw<<1 | cp) | pmw[wi]) & (uw<<1 | cu) & (rw<<1 | cr) & uw
						cp, cu, cr = pw>>63, uw>>63, rw>>63
					}
				}
				rowCur[i].normalize()
				dst := drow[(i-1)*t.stride : i*t.stride]
				if t.packed {
					lo := t.bandLo(i)
					for b := range dst {
						dst[b] = extract64(curW, lo+64*b, m)
					}
				} else {
					copy(dst, curW)
				}
			}
			if t.banded {
				w.counters.AddWrite(uint64(n), t.storeBytes)
			} else {
				w.counters.AddWrite(uint64(n*wpe), 8)
			}
			w.counters.AddFootprint(uint64(n) * entryBits)
		} else {
			for i := 1; i <= n; i++ {
				pmt := mk.pm[w.tRevBuf[i-1]]
				w.mw.tM.shl1(rowCur[i-1], 0)
				w.mw.tM.or(w.mw.tM, pmt)
				if d == 0 {
					copy(rowCur[i].w, w.mw.tM.w)
				} else {
					w.mw.tS.shl1(rowPrev[i-1], 0)
					w.mw.tD.shl1(rowPrev[i], 0)
					copy(w.mw.tI.w, rowPrev[i-1].w)
					rowCur[i].and4(w.mw.tM, w.mw.tS, w.mw.tD, w.mw.tI)
				}
				e := drow[4*(i-1)*wpe : (4*(i-1)+4)*wpe]
				copy(e[edgeM*wpe:(edgeM+1)*wpe], w.mw.tM.w)
				if d == 0 {
					for x := wpe; x < 4*wpe; x++ {
						e[x] = ^uint64(0)
					}
				} else {
					copy(e[edgeS*wpe:(edgeS+1)*wpe], w.mw.tS.w)
					copy(e[edgeD*wpe:(edgeD+1)*wpe], w.mw.tD.w)
					copy(e[edgeI*wpe:(edgeI+1)*wpe], w.mw.tI.w)
				}
			}
			w.counters.AddWrite(uint64(4*n*wpe), 8)
			w.counters.AddFootprint(uint64(n) * 4 * uint64(m))
		}
		//lint:allow hotalloc appends into the scratch-backed rows slice; amortized to zero across windows
		t.rows = append(t.rows, drow)
		if solved < 0 && rowCur[n].bit(m-1) == 0 {
			solved = d
			if !cfg.DisableET {
				w.counters.AddRows(uint64(d+1), uint64(k-d))
				w.ts.rows = t.rows
				cg, used, err := w.tracebackMW(t, mk, d)
				return d, cg, used, true, err
			}
		}
		rowPrev, rowCur = rowCur, rowPrev
	}
	w.ts.rows = t.rows
	w.counters.AddRows(uint64(len(t.rows)), 0)
	if solved < 0 {
		return 0, nil, 0, false, nil
	}
	cg, used, err := w.tracebackMW(t, mk, solved)
	return solved, cg, used, true, err
}

func (w *windowAligner) tracebackMW(t *table, mk *masksMW, dStar int) (cigar.Cigar, int, error) {
	cg := make(cigar.Cigar, 0, 2*dStar+2)
	i, j, d := t.n, t.m-1, dStar
	c := w.counters
	for j >= 0 {
		if t.entries {
			if i >= 1 && mk.pm[w.tRevBuf[i-1]].bit(j) == 0 && t.entryBit(d, i-1, j-1, c) == 0 {
				run := 1
				i, j = i-1, j-1
				for i >= 1 && j >= 0 && mk.pm[w.tRevBuf[i-1]].bit(j) == 0 && t.entryBit(d, i-1, j-1, c) == 0 {
					run++
					i, j = i-1, j-1
				}
				cg = cg.Append(cigar.Match, run)
				continue
			}
			if d >= 1 {
				if i >= 1 && t.entryBit(d-1, i-1, j-1, c) == 0 {
					cg = cg.Append(cigar.Mismatch, 1)
					i, j, d = i-1, j-1, d-1
					continue
				}
				if t.entryBit(d-1, i, j-1, c) == 0 {
					cg = cg.Append(cigar.Ins, 1)
					j, d = j-1, d-1
					continue
				}
				if i >= 1 && t.entryBit(d-1, i-1, j, c) == 0 {
					cg = cg.Append(cigar.Del, 1)
					i, d = i-1, d-1
					continue
				}
			}
		} else {
			if i >= 1 && t.edgeBit(edgeM, d, i, j, c) == 0 {
				cg = cg.Append(cigar.Match, 1)
				i, j = i-1, j-1
				continue
			}
			if d >= 1 {
				if i >= 1 {
					if t.edgeBit(edgeS, d, i, j, c) == 0 {
						cg = cg.Append(cigar.Mismatch, 1)
						i, j, d = i-1, j-1, d-1
						continue
					}
					if t.edgeBit(edgeD, d, i, j, c) == 0 {
						cg = cg.Append(cigar.Ins, 1)
						j, d = j-1, d-1
						continue
					}
					if t.edgeBit(edgeI, d, i, j, c) == 0 {
						cg = cg.Append(cigar.Del, 1)
						i, d = i-1, d-1
						continue
					}
				} else if j < d {
					cg = cg.Append(cigar.Ins, 1)
					j, d = j-1, d-1
					continue
				}
			}
		}
		return nil, 0, fmt.Errorf("core: multiword traceback stuck at i=%d j=%d d=%d", i, j, d)
	}
	return cg, t.n - i, nil
}
