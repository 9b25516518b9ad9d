// Package minimap reproduces the candidate-generation half of minimap2
// (Li, Bioinformatics 2018): minimizer seeding, a reference index, and
// chaining of seed hits into candidate mapping locations. The paper obtains
// its (read, reference) alignment pairs from minimap2 run with -P, which
// reports *all* chains rather than only the primary one; Locate mirrors
// that behaviour.
package minimap

import (
	"genasm/internal/dna"
)

// Minimizer is one selected (w,k)-minimizer.
type Minimizer struct {
	// Hash is the canonical (strand-independent) k-mer hash.
	Hash uint64
	// Pos is the 0-based start of the k-mer in the sequence.
	Pos int32
	// Rev reports whether the canonical orientation is the reverse
	// complement of the forward k-mer.
	Rev bool
}

// hash64 is minimap2's invertible integer hash (a Murmur3-style finalizer);
// it decorrelates lexicographic k-mer order from selection order.
func hash64(key, mask uint64) uint64 {
	key = (^key + (key << 21)) & mask
	key = key ^ key>>24
	key = (key + (key << 3) + (key << 8)) & mask
	key = key ^ key>>14
	key = (key + (key << 2) + (key << 4)) & mask
	key = key ^ key>>28
	key = (key + (key << 31)) & mask
	return key
}

// invalidHash marks strand-ambiguous k-mers, which are never selected.
const invalidHash = ^uint64(0)

// kmerCand is one valid k-mer in the sliding window; idx counts valid
// k-mers from the start of the sequence.
type kmerCand struct {
	hash uint64
	pos  int32
	idx  int32
	rev  bool
}

// Minimizers extracts the (w,k)-minimizers of seq (base codes). K-mers
// containing N are skipped; k-mers equal to their own reverse complement
// are skipped (strand-ambiguous), both as in minimap2. Every window of w
// consecutive valid k-mers contributes at least one minimizer.
func Minimizers(seq []byte, k, w int) []Minimizer {
	var ring []kmerCand
	return appendMinimizers(nil, seq, k, w, &ring)
}

// appendMinimizers appends the minimizers of seq to dst. K-mers are
// hashed as the scan reaches them and only the last w are kept, in *ring,
// a power-of-two ring buffer the caller may reuse across calls. The
// window minimum (the rightmost one among equal hashes) is carried from
// window to window and rescanned only when it slides out.
func appendMinimizers(dst []Minimizer, seq []byte, k, w int, ring *[]kmerCand) []Minimizer {
	if k < 1 || k > 28 || w < 1 || len(seq) < k {
		return dst
	}
	size := 1
	for size < min(w, len(seq)-k+1) {
		size <<= 1
	}
	if cap(*ring) < size {
		*ring = make([]kmerCand, size)
	}
	win := (*ring)[:size]
	rmask := size - 1

	mask := uint64(1)<<(2*uint(k)) - 1
	shift := 2 * uint(k-1)
	var fwd, rev uint64
	valid := 0
	n := 0 // valid k-mers seen so far
	var cur kmerCand
	first := len(dst)
	lastEmitted := int32(-1)
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
		// The canonical k-mer is the smaller strand; min and the
		// comparison compile without a branch, which the random strand
		// would mispredict half the time.
		c := kmerCand{hash: hash64(min(fwd, rev), mask), pos: int32(i - k + 1), idx: int32(n), rev: rev < fwd}
		if fwd == rev {
			c.hash = invalidHash
		}
		win[n&rmask] = c
		switch {
		case n == 0 || c.hash <= cur.hash:
			cur = c
		case int(cur.idx) <= n-w:
			cur = win[(n-w+1)&rmask]
			for j := n - w + 2; j <= n; j++ {
				if e := win[j&rmask]; e.hash <= cur.hash {
					cur = e
				}
			}
		}
		if n >= w-1 && cur.hash != invalidHash && cur.pos != lastEmitted {
			lastEmitted = cur.pos
			//lint:allow hotalloc appends into the caller's reused minimizer buffer; amortized to zero across reads
			dst = append(dst, Minimizer{Hash: cur.hash, Pos: cur.pos, Rev: cur.rev})
		}
		n++
	}
	// Sequences with fewer than w valid k-mers still seed with their
	// single window minimum.
	if len(dst) == first && n > 0 && cur.hash != invalidHash {
		dst = append(dst, Minimizer{Hash: cur.hash, Pos: cur.pos, Rev: cur.rev})
	}
	return dst
}

// MinimizersRaw is Minimizers on a raw ASCII sequence.
func MinimizersRaw(seq []byte, k, w int) []Minimizer {
	return Minimizers(dna.EncodeSeq(seq), k, w)
}
