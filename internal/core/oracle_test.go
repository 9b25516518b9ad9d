package core_test

import (
	"genasm/internal/cigar"
	"genasm/internal/core"
)

// stitchAlign is the windowing pipeline as it was before the tracebacks
// became commit-bounded: every window is traced back in full, its CIGAR is
// cut to the first W-O query bases with Cigar.Slice, and the pieces are
// joined with Cigar.Concat. It is the test oracle for core.AlignWindowed,
// which must return the same distance, reference span and CIGAR.
func stitchAlign(query, ref []byte, w, o int, align func(p, t []byte) (core.WindowResult, error)) (core.Result, error) {
	const lastWindowSlack = 48 // core's final-window reference slack
	var (
		full   cigar.Cigar
		dist   int
		qi, ti int
	)
	for qi < len(query) {
		rem := len(query) - qi
		if rem <= w {
			wr, err := align(query[qi:], ref[ti:min(len(ref), ti+rem+lastWindowSlack)])
			if err != nil {
				return core.Result{}, err
			}
			full = full.Concat(wr.Cigar)
			dist += wr.Distance
			ti += wr.TextUsed
			break
		}
		wr, err := align(query[qi:qi+w], ref[ti:min(len(ref), ti+w)])
		if err != nil {
			return core.Result{}, err
		}
		committed, refUsed, err := wr.Cigar.Slice(w - o)
		if err != nil {
			return core.Result{}, err
		}
		full = full.Concat(committed)
		dist += committed.EditCost()
		qi += w - o
		ti += refUsed
	}
	return core.Result{Distance: dist, Cigar: full, RefConsumed: ti}, nil
}
