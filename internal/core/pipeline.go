package core

import (
	"errors"

	"genasm/internal/cigar"
	"genasm/internal/dna"
	"genasm/internal/stats"
)

// Result is a full query-vs-candidate alignment.
type Result struct {
	// Distance is the total edit cost of the committed alignment.
	Distance int
	// Cigar is the alignment of the whole query against the consumed
	// reference prefix.
	Cigar cigar.Cigar
	// RefConsumed is the number of reference characters aligned; the
	// remaining reference tail is candidate-region slack.
	RefConsumed int
}

// WindowFunc aligns pattern window p against text window t (both as base
// codes, forward orientation) and appends the alignment of p's first
// commit bases to cg, joining runs at the append point as cigar.Concat
// does. It returns the extended CIGAR, the committed edit cost and the
// number of text characters the committed part consumed; commit == len(p)
// commits the whole window. Implementations: the improved aligner in this
// package and the unimproved one in internal/baseline, so both share the
// exact same windowing pipeline.
type WindowFunc func(cg cigar.Cigar, p, t []byte, commit int) (cigar.Cigar, int, int, error)

// lastWindowSlack is the extra reference given to the final window beyond
// the remaining pattern length, so trailing deletions can be absorbed.
const lastWindowSlack = 48

// AlignWindowed runs the GenASM long-read windowing pipeline: windows of W
// pattern bases are aligned left to right, each committing only its first
// W-O bases (the overlap region is re-aligned by the next window, which
// absorbs indel drift at window borders); the final window commits all it
// holds. query and ref are base codes. The committed alignment is appended
// to cg, and the Result's Cigar shares cg's backing array.
func AlignWindowed(cg cigar.Cigar, query, ref []byte, w, o int, align WindowFunc) (Result, error) {
	if w < 1 || o < 0 || o >= w {
		return Result{}, errors.New("core: invalid window geometry")
	}
	var dist, qi, ti int
	for qi < len(query) {
		pEnd, commit, tEnd := qi+w, w-o, min(len(ref), ti+w)
		if rem := len(query) - qi; rem <= w {
			pEnd, commit, tEnd = len(query), rem, min(len(ref), ti+rem+lastWindowSlack)
		}
		var (
			cost, used int
			err        error
		)
		cg, cost, used, err = align(cg, query[qi:pEnd], ref[ti:tEnd], commit)
		if err != nil {
			return Result{}, err
		}
		dist += cost
		qi += commit
		ti += used
	}
	return Result{Distance: dist, Cigar: cg, RefConsumed: ti}, nil
}

// Aligner is the improved GenASM aligner. It is cheap to create and holds
// reusable scratch buffers, so it is NOT safe for concurrent use: create
// one Aligner per goroutine.
type Aligner struct {
	wa windowAligner
	cg cigar.Cigar // read-level CIGAR scratch; Results get an exact-size copy
}

// New returns an Aligner for cfg.
func New(cfg Config) (*Aligner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Aligner{wa: windowAligner{cfg: cfg}}, nil
}

// SetCounters attaches memory-behaviour instrumentation; pass nil to
// disable (the default).
func (a *Aligner) SetCounters(c *stats.Counters) { a.wa.counters = c }

// Align aligns query against the candidate reference region ref (both raw
// ASCII base sequences) and returns the committed alignment.
func (a *Aligner) Align(query, ref []byte) (Result, error) {
	return a.AlignEncoded(dna.EncodeSeq(query), dna.EncodeSeq(ref))
}

// AlignEncoded is Align for pre-encoded base codes, avoiding the per-call
// encoding cost in batch pipelines.
func (a *Aligner) AlignEncoded(query, ref []byte) (Result, error) {
	res, err := AlignWindowed(a.cg[:0], query, ref, a.wa.cfg.W, a.wa.cfg.O, a.wa.alignWindow)
	if err != nil {
		return Result{}, err
	}
	a.cg = res.Cigar
	res.Cigar = res.Cigar.Clone()
	return res, nil
}

// AlignWindow exposes single-window alignment (base codes, forward
// orientation); used by tests, the GPU kernels and the ablation benches.
func (a *Aligner) AlignWindow(p, t []byte) (WindowResult, error) {
	cg, d, used, err := a.wa.alignWindow(a.cg[:0], p, t, len(p))
	if err != nil {
		return WindowResult{}, err
	}
	a.cg = cg
	return WindowResult{Distance: d, Cigar: cg.Clone(), TextUsed: used}, nil
}
