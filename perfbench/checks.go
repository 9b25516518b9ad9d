package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"strconv"
	"strings"
	"sync"

	"genasm"
)

// digestWriter is the sink SAM output is written to: it discards the
// bytes but counts and hashes them, so two runs of the same reads can be
// compared without keeping their output.
type digestWriter struct {
	h hash.Hash
	n int64
}

func newDigestWriter() *digestWriter { return &digestWriter{h: sha256.New()} }

func (w *digestWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}

func (w *digestWriter) sum() string { return fmt.Sprintf("%x", w.h.Sum(nil)) }

// outcomeBook holds, per input read, the first mapping outcome the run
// saw; every later outcome for the same read must equal it.
type outcomeBook struct {
	mu   sync.Mutex
	seen []bool
	out  []genasm.MappedAlignment
}

func newOutcomeBook(n int) *outcomeBook {
	return &outcomeBook{seen: make([]bool, n), out: make([]genasm.MappedAlignment, n)}
}

// check records or compares read i's outcome; it returns a description
// of the difference, or "" when the outcome agrees.
func (ob *outcomeBook) check(i int, m genasm.MappedAlignment) string {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	if !ob.seen[i] {
		ob.seen[i] = true
		ob.out[i] = m
		return ""
	}
	return diffMapped(ob.out[i], m)
}

// diffMapped compares two emissions for the same read, ignoring the
// read itself and its stream position.
func diffMapped(want, got genasm.MappedAlignment) string {
	switch {
	case (want.Err == nil) != (got.Err == nil):
		return fmt.Sprintf("error %v, want %v", got.Err, want.Err)
	case want.Unmapped != got.Unmapped:
		return fmt.Sprintf("unmapped=%t, want %t", got.Unmapped, want.Unmapped)
	case want.Candidate != got.Candidate || want.Rank != got.Rank:
		return fmt.Sprintf("candidate %+v rank %d, want %+v rank %d", got.Candidate, got.Rank, want.Candidate, want.Rank)
	case want.Candidates != got.Candidates || want.SecondaryScore != got.SecondaryScore:
		return fmt.Sprintf("candidates %d/%v, want %d/%v", got.Candidates, got.SecondaryScore, want.Candidates, want.SecondaryScore)
	case want.Result != got.Result:
		return fmt.Sprintf("result %+v, want %+v", got.Result, want.Result)
	}
	return ""
}

// placedCorrectly reports whether a read's primary placement overlaps
// the locus it was simulated from, on the right strand.
func placedCorrectly(m genasm.MappedAlignment, truth genasm.SimulatedRead) bool {
	if m.Err != nil || m.Unmapped {
		return false
	}
	c := m.Candidate
	return c.RevComp == truth.RevComp && c.Start < truth.Pos+truth.RefSpan && truth.Pos < c.End
}

// checkSAMRecord verifies one SAM alignment line against the reference
// on its own terms: the CIGAR's query length equals len(SEQ), NM equals
// the CIGAR's edit cost, and replaying the CIGAR from POS reproduces
// every = and X against the reference. Unmapped records pass.
func checkSAMRecord(line string, ref []byte) error {
	f := strings.Split(line, "\t")
	if len(f) < 11 {
		return fmt.Errorf("%d fields", len(f))
	}
	flag, err := strconv.Atoi(f[1])
	if err != nil {
		return fmt.Errorf("FLAG %q", f[1])
	}
	if flag&4 != 0 {
		return nil
	}
	pos, err := strconv.Atoi(f[3])
	if err != nil || pos < 1 {
		return fmt.Errorf("POS %q", f[3])
	}
	seq := []byte(f[9])
	nm := -1
	for _, tag := range f[11:] {
		if v, ok := strings.CutPrefix(tag, "NM:i:"); ok {
			nm, err = strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("tag %q", tag)
			}
		}
	}
	qi, ri, edits := 0, pos-1, 0
	cg := f[5]
	for len(cg) > 0 {
		j := 0
		for j < len(cg) && cg[j] >= '0' && cg[j] <= '9' {
			j++
		}
		if j == 0 || j == len(cg) {
			return fmt.Errorf("CIGAR %q", f[5])
		}
		n, _ := strconv.Atoi(cg[:j])
		op := cg[j]
		cg = cg[j+1:]
		switch op {
		case '=', 'X':
			if qi+n > len(seq) || ri+n > len(ref) {
				return fmt.Errorf("CIGAR %q runs off SEQ or reference", f[5])
			}
			for k := 0; k < n; k++ {
				if (seq[qi+k] == ref[ri+k]) != (op == '=') {
					return fmt.Errorf("CIGAR %q: op %c disagrees at query %d, ref %d", f[5], op, qi+k, ri+k)
				}
			}
			if op == 'X' {
				edits += n
			}
			qi, ri = qi+n, ri+n
		case 'I':
			qi += n
			edits += n
		case 'D':
			ri += n
			edits += n
		default:
			return fmt.Errorf("CIGAR op %c", op)
		}
	}
	if qi != len(seq) {
		return fmt.Errorf("CIGAR query length %d, SEQ length %d", qi, len(seq))
	}
	if ri > len(ref) {
		return fmt.Errorf("CIGAR runs past the reference end")
	}
	if nm != edits {
		return fmt.Errorf("NM %d, CIGAR edit cost %d", nm, edits)
	}
	return nil
}

// normalizeCached clears the one field that legitimately differs between
// two answers to the same request: whether it came from the result cache.
func normalizeCached(body []byte) []byte {
	return bytes.ReplaceAll(body, []byte(`"cached":true`), []byte(`"cached":false`))
}
