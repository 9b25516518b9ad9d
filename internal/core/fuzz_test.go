package core_test

// Differential fuzzing of the window kernel and the windowing pipeline.
//
// FuzzWindowAlign aligns every input with all six valid SENE/DENT/ET
// ablations of internal/core and the independent unimproved implementation
// in internal/baseline (single-word widths), and checks them against the
// quadratic gold standard in internal/swg. Any distance mismatch, CIGAR
// divergence between modes, or CIGAR that does not replay to the claimed
// distance fails the target.
//
// FuzzAlignWindowed runs whole reads through core.AlignWindowed, whose
// windows trace back only the bases they commit straight into the read's
// CIGAR, and compares every result with stitchAlign, the oracle that traces
// each window in full and stitches the committed slices.
//
// This lives in an external test package because internal/baseline imports
// internal/core (for core.WindowResult), so an in-package fuzz test would
// create an import cycle.

import (
	"fmt"
	"testing"

	"genasm/internal/baseline"
	"genasm/internal/core"
	"genasm/internal/dna"
	"genasm/internal/swg"
)

// fuzzAblations mirrors the in-package ablations helper: the six valid
// SENE/DENT/ET combinations (DENT requires SENE).
func fuzzAblations(base core.Config) []core.Config {
	var out []core.Config
	for _, et := range []bool{false, true} {
		for _, mode := range []struct{ sene, dent bool }{
			{false, false}, {true, false}, {true, true},
		} {
			c := base
			c.DisableET = et
			c.DisableSENE = !mode.sene
			c.DisableDENT = !mode.dent
			out = append(out, c)
		}
	}
	return out
}

func clampFuzzCodes(raw []byte, maxLen int) []byte {
	if len(raw) > maxLen {
		raw = raw[:maxLen]
	}
	out := make([]byte, len(raw))
	for i, b := range raw {
		out[i] = b % 4
	}
	return out
}

func FuzzWindowAlign(f *testing.F) {
	// Seeds cover: exact match, substitutions, indels, the W=64 boundary,
	// multi-word widths, a band-limit budget, and degenerate texts.
	f.Add([]byte("\x00\x01\x02\x03"), []byte("\x00\x01\x02\x03"), uint8(12), uint8(16))
	f.Add([]byte("\x00\x01\x02\x03"), []byte("\x00\x03\x02\x03"), uint8(4), uint8(16))
	f.Add([]byte("\x00\x01\x01\x02\x03"), []byte("\x00\x01\x02\x03"), uint8(2), uint8(8))
	f.Add(make([]byte, 64), make([]byte, 80), uint8(12), uint8(64))
	f.Add(make([]byte, 65), make([]byte, 70), uint8(12), uint8(65))
	f.Add(make([]byte, 100), make([]byte, 120), uint8(40), uint8(200))
	f.Add([]byte("\x01\x01\x01"), []byte{}, uint8(3), uint8(4))
	f.Add([]byte("\x02"), []byte("\x03\x03\x03\x03"), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, pRaw, tRaw []byte, kRaw, wRaw uint8) {
		w := 1 + int(wRaw)%200 // window width 1..200: both kernels
		k := 1 + int(kRaw)%w   // budget 1..w: banded, band-limit and unbanded
		p := clampFuzzCodes(pRaw, w)
		tx := clampFuzzCodes(tRaw, w+w/4+8)
		if len(p) == 0 {
			return
		}
		wantD, _, _ := swg.PrefixAlign(dna.DecodeSeq(p), dna.DecodeSeq(tx))

		var refCg string
		var refUsed int
		cfgs := fuzzAblations(core.Config{W: w, O: 0, InitialK: k})
		for i, cfg := range cfgs {
			a, err := core.New(cfg)
			if err != nil {
				t.Fatalf("cfg %+v: %v", cfg, err)
			}
			wr, err := a.AlignWindow(p, tx)
			if err != nil {
				t.Fatalf("cfg %+v: %v", cfg, err)
			}
			if wr.Distance != wantD {
				t.Fatalf("cfg %+v: distance %d, gold standard %d (m=%d n=%d)",
					cfg, wr.Distance, wantD, len(p), len(tx))
			}
			if got := wr.Cigar.EditCost(); got != wr.Distance {
				t.Fatalf("cfg %+v: cigar cost %d != distance %d", cfg, got, wr.Distance)
			}
			if err := wr.Cigar.Check(dna.DecodeSeq(p), dna.DecodeSeq(tx[:wr.TextUsed])); err != nil {
				t.Fatalf("cfg %+v: cigar does not replay: %v", cfg, err)
			}
			if i == 0 {
				refCg, refUsed = wr.Cigar.String(), wr.TextUsed
			} else if wr.Cigar.String() != refCg || wr.TextUsed != refUsed {
				t.Fatalf("cfg %+v diverges from %+v: %q/%q used %d/%d",
					cfg, cfgs[0], wr.Cigar, refCg, wr.TextUsed, refUsed)
			}
		}

		// The unimproved MICRO 2020 formulation is single-word only.
		if w <= 64 {
			ba, err := baseline.New(baseline.Config{W: w, O: 0, InitialK: k})
			if err != nil {
				t.Fatalf("baseline config: %v", err)
			}
			bw, err := ba.AlignWindow(p, tx)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			if bw.Distance != wantD {
				t.Fatalf("baseline distance %d, gold standard %d", bw.Distance, wantD)
			}
			if bw.Cigar.String() != refCg || bw.TextUsed != refUsed {
				t.Fatalf("baseline diverges from improved: %q/%q used %d/%d",
					bw.Cigar, refCg, bw.TextUsed, refUsed)
			}
		}
	})
}

// fuzzRef derives the reference for a fuzzed read: for an on-target pair,
// the read with up to 64 edits (substitution, deletion or insertion, each
// placed and chosen by two bytes of raw) plus a random tail; otherwise raw
// itself, a reference unrelated to the read.
func fuzzRef(query, raw []byte, onTarget bool) []byte {
	if !onTarget {
		return clampFuzzCodes(raw, len(query)+len(query)/4+64)
	}
	ref := append([]byte(nil), query...)
	x := 0
	for ; x+1 < len(raw) && x < 128 && len(ref) > 0; x += 2 {
		pos, op := int(raw[x])*len(ref)/256, raw[x+1]
		switch op % 3 {
		case 0:
			ref[pos] = op / 3 % 4
		case 1:
			ref = append(ref[:pos], ref[pos+1:]...)
		default:
			ref = append(ref[:pos], append([]byte{op / 3 % 4}, ref[pos:]...)...)
		}
	}
	return append(ref, clampFuzzCodes(raw[x:], 64)...)
}

func FuzzAlignWindowed(f *testing.F) {
	// Seeds cover: exact and noisy on-target reads, an unrelated reference
	// (every window retries), one-base windows, zero and maximal overlap,
	// multi-word widths, a reference shorter than the read and an empty one.
	f.Add([]byte("\x00\x01\x02\x03\x00\x01\x02\x03\x00\x01"), []byte{}, uint8(3), uint8(1), uint8(2), uint8(1))
	f.Add(make([]byte, 300), []byte("\x10\x00\x40\x01\x80\x02\xc0\x05"), uint8(63), uint8(24), uint8(11), uint8(1))
	f.Add([]byte("\x01\x02\x03\x00\x01\x01\x02\x03\x03\x00\x02\x01\x00\x03\x02\x01\x01\x00\x02\x03"),
		[]byte("\x03\x03\x02\x00\x00\x01\x03\x02\x02\x00\x01\x03\x01\x02\x00\x00\x03\x01\x02\x02\x01\x00"),
		uint8(7), uint8(3), uint8(3), uint8(0))
	f.Add(make([]byte, 50), []byte("\x05\x04"), uint8(0), uint8(0), uint8(0), uint8(1))
	f.Add(make([]byte, 400), []byte("\x20\x01\x60\x02\xa0\x00\xe0\x04"), uint8(127), uint8(47), uint8(11), uint8(1))
	f.Add(make([]byte, 400), make([]byte, 100), uint8(199), uint8(199), uint8(39), uint8(0))
	f.Add([]byte("\x02\x02\x02\x02\x02\x02"), []byte("\x01"), uint8(4), uint8(2), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, qRaw, rRaw []byte, wRaw, oRaw, kRaw, mode uint8) {
		w := 1 + int(wRaw)%200 // window width 1..200: both kernels
		o := int(oRaw) % w     // overlap 0..W-1
		k := 1 + int(kRaw)%w   // budget 1..W: banded, band-limit and unbanded
		// At most 17 windows per read, so a wide window with a wide
		// overlap stays cheap enough to fuzz.
		query := clampFuzzCodes(qRaw, min(512, w+16*(w-o)))
		ref := fuzzRef(query, rRaw, mode&1 == 1)
		qDec := dna.DecodeSeq(query)

		check := func(name string, got core.Result, oracle func(p, t []byte) (core.WindowResult, error)) string {
			t.Helper()
			want, err := stitchAlign(query, ref, w, o, oracle)
			if err != nil {
				t.Fatalf("%s: oracle: %v", name, err)
			}
			if got.Distance != want.Distance || got.RefConsumed != want.RefConsumed ||
				got.Cigar.String() != want.Cigar.String() {
				t.Fatalf("%s W=%d O=%d k=%d: pipeline %d/%d %q, oracle %d/%d %q", name, w, o, k,
					got.Distance, got.RefConsumed, got.Cigar, want.Distance, want.RefConsumed, want.Cigar)
			}
			if err := got.Cigar.Check(qDec, dna.DecodeSeq(ref[:got.RefConsumed])); err != nil {
				t.Fatalf("%s: cigar does not replay: %v", name, err)
			}
			if got.Cigar.EditCost() != got.Distance {
				t.Fatalf("%s: cigar cost %d != distance %d", name, got.Cigar.EditCost(), got.Distance)
			}
			return got.Cigar.String()
		}

		var refCg string
		for i, cfg := range fuzzAblations(core.Config{W: w, O: o, InitialK: k}) {
			a, err := core.New(cfg)
			if err != nil {
				t.Fatalf("cfg %+v: %v", cfg, err)
			}
			got, err := a.AlignEncoded(query, ref)
			if err != nil {
				t.Fatalf("cfg %+v: %v", cfg, err)
			}
			cg := check(fmt.Sprintf("%+v", cfg), got, a.AlignWindow)
			if i == 0 {
				refCg = cg
			} else if cg != refCg {
				t.Fatalf("cfg %+v diverges from the first ablation: %q vs %q", cfg, cg, refCg)
			}
		}

		// The unimproved MICRO 2020 formulation is single-word only.
		if w <= 64 {
			ba, err := baseline.New(baseline.Config{W: w, O: o, InitialK: k})
			if err != nil {
				t.Fatalf("baseline config: %v", err)
			}
			got, err := ba.AlignEncoded(query, ref)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			if cg := check("baseline", got, ba.AlignWindow); cg != refCg {
				t.Fatalf("baseline diverges from improved: %q vs %q", cg, refCg)
			}
		}
	})
}
