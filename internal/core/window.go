package core

import (
	"fmt"

	"genasm/internal/cigar"
	"genasm/internal/stats"
)

// WindowResult is the outcome of aligning one pattern window against one
// text window.
type WindowResult struct {
	// Distance is the minimal edit distance of the whole pattern window
	// against any prefix of the text window.
	Distance int
	// Cigar is an optimal alignment realizing Distance, in forward
	// window coordinates.
	Cigar cigar.Cigar
	// TextUsed is the number of text characters the alignment consumed
	// (the length of the aligned text prefix).
	TextUsed int
}

// windowAligner aligns single windows with retry-on-budget-exceeded. It owns
// reusable scratch — the stored-table buffers in ts are shared by the
// single-word and multi-word kernels — and is not safe for concurrent use.
type windowAligner struct {
	cfg      Config
	ts       tableScratch
	mw       mwScratch
	pRevBuf  []byte
	tRevBuf  []byte
	counters *stats.Counters
}

// alignWindow aligns pattern p (base codes, forward orientation) against
// text t (base codes, forward) under the window semantics above and appends
// the alignment of p's first commit bases to dst (commit == len(p) commits
// the whole window). It is a WindowFunc. Both strings are reversed
// internally, following GenASM, so the traceback emits operations in
// forward order and the free text slack lands at the tail.
//
// When the distance exceeds the budget k, k doubles (up to len(p)) and the
// retry resumes the distance calculation at row k_old+1 wherever the stored
// rows allow it. Each attempt is accounted as one window.
func (w *windowAligner) alignWindow(dst cigar.Cigar, p, t []byte, commit int) (cigar.Cigar, int, int, error) {
	m, n := len(p), len(t)
	if m == 0 {
		return dst, 0, 0, nil
	}
	w.pRevBuf = reverseInto(w.pRevBuf[:0], p)
	w.tRevBuf = reverseInto(w.tRevBuf[:0], t)

	// The pattern masks depend only on the window, not the error budget,
	// so they are built once and survive budget-doubling retries.
	single := m <= 64
	var mk64 masks64
	if single {
		mk64 = buildMasks64(w.pRevBuf)
	} else {
		w.mw.mk.buildInto(w.pRevBuf)
	}

	k := min(w.cfg.InitialK, m)
	for resume := false; ; resume = true {
		var (
			tbl *table
			d   int
			ok  bool
		)
		if single {
			tbl, d, ok = dc64(&mk64, w.tRevBuf, k, resume, w.cfg, &w.ts, w.counters)
		} else {
			tbl, d, ok = w.dcMW(k, resume)
		}
		if ok {
			var (
				cost, used int
				err        error
			)
			if single {
				dst, cost, used, err = traceback64(dst, tbl, &mk64, w.tRevBuf, d, commit, w.counters)
			} else {
				dst, cost, used, err = w.tracebackMW(dst, tbl, d, commit)
			}
			w.counters.EndWindow()
			return dst, cost, used, err
		}
		w.counters.EndWindow()
		if k >= m {
			// Unreachable: at k = m the all-deletion solution always
			// exists (every bit of R[m] starts active).
			return dst, 0, 0, fmt.Errorf("core: window unsolved at k=m=%d (n=%d)", m, n)
		}
		k = min(2*k, m)
	}
}

// reverseInto fills dst with src reversed, reusing dst's backing array
// when its capacity suffices, so the steady state is allocation-free.
func reverseInto(dst, src []byte) []byte {
	if cap(dst) < len(src) {
		dst = make([]byte, len(src))
	}
	dst = dst[:len(src)]
	for i, b := range src {
		dst[len(src)-1-i] = b
	}
	return dst
}
