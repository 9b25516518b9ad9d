package core

import (
	"fmt"

	"genasm/internal/cigar"
	"genasm/internal/dna"
	"genasm/internal/stats"
)

// masks64 holds the Bitap pattern-match bitmasks of one (reversed) pattern
// window for the single-word fast path (m <= 64). Bits are 0-active: bit j
// of pm[c] is 0 iff the reversed pattern has base code c at position j. Bits
// at and above m are 1 so they always read as inactive.
type masks64 struct {
	pm   [dna.Alphabet]uint64
	m    int
	high uint64 // 1s at bit positions >= m
}

func buildMasks64(pRev []byte) masks64 {
	m := len(pRev)
	var mk masks64
	mk.m = m
	if m < 64 {
		mk.high = ^uint64(0) << uint(m)
	}
	for c := 0; c < dna.Alphabet; c++ {
		mk.pm[c] = ^uint64(0)
	}
	for j, pc := range pRev {
		if pc != dna.N {
			mk.pm[pc] &^= uint64(1) << uint(j)
		}
	}
	return mk
}

// initRow returns the automaton state before any text character at error
// level d: bit j is active (0) iff the pattern prefix of length j+1 can be
// produced by j+1 <= d deletions.
func (mk *masks64) initRow(d int) uint64 {
	var r uint64
	if d >= 64 {
		r = 0
	} else {
		r = ^uint64(0) << uint(d)
	}
	return r | mk.high
}

// dc64 runs the improved GenASM distance calculation for one window:
// reversed pattern masks mk against reversed text tRev (base codes), with
// error budget k. It returns the stored table and the window distance d*,
// or ok=false if the distance exceeds k.
//
// The loop is row-major over error levels so that early termination can
// skip every row above the first solved one. In entry mode (SENE) the
// stored rows double as the kernel's working state: row d's recurrence
// reads R[d-1][i-1] and R[d-1][i] straight from the stored row d-1, so
// each text position costs exactly one load and one store of DP state.
// Edge mode keeps separate working rows, since its stored vectors are the
// four edges rather than the ANDed entries.
//
// resume marks a budget-doubling retry of the window the table already
// holds. Stored entry rows are full automaton words whatever k is (DENT
// applies the band only when rows are read), so a retry keeps the failed
// attempt's rows 0..k_old and continues at row k_old+1: no row of a window
// is computed twice. Edge rows are recomputed. The footprint still charges
// every row the attempt's table holds, retained ones included, at this
// attempt's band width.
func dc64(mk *masks64, tRev []byte, k int, resume bool, cfg Config, scratch *tableScratch, c *stats.Counters) (*table, int, bool) {
	m, n := mk.m, len(tRev)
	t := &scratch.tbl
	from := 0
	if resume && t.entries {
		from = len(t.rows)
	}
	*t = table{
		m: m, n: n, k: k,
		entries: !cfg.DisableSENE,
		banded:  !cfg.DisableDENT && 2*k+3 <= 64,
		wpe:     1,
		stride:  1,
		rows:    scratch.rows[:from],
	}
	t.storeBytes = 8
	rowBits := uint64(64) * uint64(n)
	if t.banded {
		t.bandB = 2*k + 3
		rowBits = uint64(t.bandB) * uint64(n)
		t.storeBytes = uint64(t.bandB+7) / 8
	}
	if !t.entries {
		t.stride = 4
		rowBits = uint64(4*64) * uint64(n)
	}

	high := mk.high
	var rowPrev, rowCur []uint64
	if !t.entries {
		rowPrev = scratch.row(0, n+1)
		rowCur = scratch.row(1, n+1)
	}
	solved := -1
	for d := from; d <= k; d++ {
		drow := scratch.tableRow(d, t.stride*n)
		var last uint64
		if t.entries {
			prev := mk.initRow(d)
			if d == 0 {
				for i := 0; i < n; i++ {
					cur := prev<<1 | mk.pm[tRev[i]] | high
					drow[i] = cur
					prev = cur
				}
			} else {
				prevRow := t.rows[d-1]
				up := mk.initRow(d - 1) // R[d-1][i-1], starts at the init state
				for i := 0; i < n; i++ {
					ur := prevRow[i] // R[d-1][i]
					cur := (prev<<1|mk.pm[tRev[i]])&(up<<1)&(ur<<1)&up | high
					drow[i] = cur
					prev = cur
					up = ur
				}
			}
			last = prev
			c.AddWrite(uint64(n), t.storeBytes)
		} else {
			prev := mk.initRow(d)
			rowCur[0] = prev
			for i := 1; i <= n; i++ {
				M := prev<<1 | mk.pm[tRev[i-1]]
				var cur uint64
				e := drow[4*(i-1):]
				if d == 0 {
					cur = M | high
					e[edgeM], e[edgeS], e[edgeD], e[edgeI] = M, ^uint64(0), ^uint64(0), ^uint64(0)
				} else {
					up1 := rowPrev[i-1] // R[d-1][i-1]
					S := up1 << 1
					D := rowPrev[i] << 1
					I := up1
					cur = M&S&D&I | high
					e[edgeM], e[edgeS], e[edgeD], e[edgeI] = M, S, D, I
				}
				rowCur[i] = cur
				prev = cur
			}
			last = prev
			c.AddWrite(uint64(4*n), 8)
			rowPrev, rowCur = rowCur, rowPrev
		}
		//lint:allow hotalloc appends into the scratch-backed rows slice; amortized to zero across windows
		t.rows = append(t.rows, drow)
		if solved < 0 && last>>uint(m-1)&1 == 0 {
			solved = d
			if !cfg.DisableET {
				break
			}
		}
	}
	scratch.rows = t.rows
	stored := len(t.rows)
	c.AddRows(uint64(stored-from), uint64(k+1-stored))
	c.AddFootprint(uint64(stored) * rowBits)
	if solved < 0 {
		return t, 0, false
	}
	return t, solved, true
}

// traceback64 walks the stored table from the solved state (text fully
// processed, whole pattern matched, error level d*) back toward the start
// of the pattern, appending alignment operations to dst. Because both
// window strings are reversed, the operations come out in forward order of
// the original window, so they extend the read-level CIGAR directly: the
// first append merges with dst's last run, as cigar.Concat would.
//
// The walk stops once the window's first commit pattern bases are emitted
// (commit == m walks the whole window), so the overlap a later window
// re-aligns is never traced. It returns the extended CIGAR, the committed
// edit cost (d* minus the level the walk stops at) and the number of text
// characters the committed part consumed.
//
// Edge priority is match, substitution, deletion (pattern-only: a query
// insertion in CIGAR terms), insertion (text-only: a query deletion). Every
// implementation in this repository uses the same order, so ablated and
// unimproved configurations produce byte-identical alignments. Match runs
// are followed to their end before emitting, so the common case (long
// stretches of agreement between pattern and text) costs one run-length
// append instead of one per base.
func traceback64(dst cigar.Cigar, t *table, mk *masks64, tRev []byte, dStar, commit int, c *stats.Counters) (cigar.Cigar, int, int, error) {
	i, j, d := t.n, t.m-1, dStar
	stop := t.m - 1 - commit // j once commit pattern bases are emitted
	for j > stop {
		if t.entries {
			if i >= 1 && mk.pm[tRev[i-1]]>>uint(j)&1 == 0 && t.entryBit(d, i-1, j-1, c) == 0 {
				run := 1
				i, j = i-1, j-1
				for i >= 1 && j > stop && mk.pm[tRev[i-1]]>>uint(j)&1 == 0 && t.entryBit(d, i-1, j-1, c) == 0 {
					run++
					i, j = i-1, j-1
				}
				dst = dst.Append(cigar.Match, run)
				continue
			}
			if d >= 1 {
				if i >= 1 && t.entryBit(d-1, i-1, j-1, c) == 0 {
					dst = dst.Append(cigar.Mismatch, 1)
					i, j, d = i-1, j-1, d-1
					continue
				}
				if t.entryBit(d-1, i, j-1, c) == 0 {
					dst = dst.Append(cigar.Ins, 1)
					j, d = j-1, d-1
					continue
				}
				if i >= 1 && t.entryBit(d-1, i-1, j, c) == 0 {
					dst = dst.Append(cigar.Del, 1)
					i, d = i-1, d-1
					continue
				}
			}
		} else {
			if i >= 1 && t.edgeBit(edgeM, d, i, j, c) == 0 {
				dst = dst.Append(cigar.Match, 1)
				i, j = i-1, j-1
				continue
			}
			if d >= 1 {
				if i >= 1 {
					if t.edgeBit(edgeS, d, i, j, c) == 0 {
						dst = dst.Append(cigar.Mismatch, 1)
						i, j, d = i-1, j-1, d-1
						continue
					}
					if t.edgeBit(edgeD, d, i, j, c) == 0 {
						dst = dst.Append(cigar.Ins, 1)
						j, d = j-1, d-1
						continue
					}
					if t.edgeBit(edgeI, d, i, j, c) == 0 {
						dst = dst.Append(cigar.Del, 1)
						i, d = i-1, d-1
						continue
					}
				} else if j < d { // initial column: deletions only
					dst = dst.Append(cigar.Ins, 1)
					j, d = j-1, d-1
					continue
				}
			}
		}
		return dst, 0, 0, fmt.Errorf("core: traceback stuck at i=%d j=%d d=%d (table %dx%d k=%d)", i, j, d, t.n, t.m, t.k)
	}
	if err := t.checkWalkEnd(i, j, d, dStar); err != nil {
		return dst, 0, 0, err
	}
	return dst, dStar - d, t.n - i, nil
}
