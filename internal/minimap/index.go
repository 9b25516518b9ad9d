package minimap

import (
	"cmp"
	"fmt"
	"slices"

	"genasm/internal/dna"
)

// Index is a minimizer hash table over one reference sequence. It is
// pointer-free apart from its two flat arrays, so the collector never
// walks per-seed slice headers, and read-only after BuildIndex, so any
// number of goroutines may query it.
type Index struct {
	K, W   int
	RefLen int
	// buckets is an open-addressing table (linear probing, load at most
	// 3/4) keyed by canonical minimizer hash. A bucket's reference
	// occurrences are occ[off:off+cnt], packed as pos<<1 | strand, in
	// CSR layout: one flat array sliced per key.
	buckets []bucket
	shift   uint // 64 - log2(len(buckets)), for Fibonacci hashing
	occ     []uint32
	seeds   int
}

// bucket is one hash-table slot. Keys seen more often than
// MaxOccurrences keep their slot with cnt 0.
type bucket struct {
	key      uint64
	off, cnt uint32
}

// emptyKey marks a free bucket. Minimizer hashes are masked to 2k <= 56
// bits, so no stored key can collide with it.
const emptyKey = ^uint64(0)

// slot returns the bucket holding h, or the free bucket that ends h's
// probe sequence.
func (ix *Index) slot(h uint64) int {
	mask := len(ix.buckets) - 1
	s := int(h * 0x9e3779b97f4a7c15 >> ix.shift)
	for ix.buckets[s].key != h && ix.buckets[s].key != emptyKey {
		s = (s + 1) & mask
	}
	return s
}

// IndexConfig controls index construction.
type IndexConfig struct {
	K, W int
	// MaxOccurrences drops minimizers that occur more often than this in
	// the reference (0 means 64), taming repeat-driven seed explosions.
	MaxOccurrences int
}

// DefaultIndexConfig matches minimap2's map-pb preset (k=19, w=10 — here
// k=15 to stay informative on small synthetic genomes).
func DefaultIndexConfig() IndexConfig { return IndexConfig{K: 15, W: 10, MaxOccurrences: 64} }

// BuildIndex indexes a reference (base codes). It counts occurrences per
// key in the hash table, lays the keys' occurrence lists out back to back
// by prefix sum, then fills them in reference order.
func BuildIndex(ref []byte, cfg IndexConfig) (*Index, error) {
	if cfg.K < 1 || cfg.K > 28 || cfg.W < 1 {
		return nil, fmt.Errorf("minimap: invalid k=%d w=%d", cfg.K, cfg.W)
	}
	if cfg.MaxOccurrences <= 0 {
		cfg.MaxOccurrences = 64
	}
	var ring []kmerCand
	// A random sequence has about 2/(w+1) minimizers per base.
	ms := appendMinimizers(make([]Minimizer, 0, 2*len(ref)/(cfg.W+1)+16), ref, cfg.K, cfg.W, &ring)

	// Distinct keys never outnumber minimizers, so this size keeps the
	// load at or below 3/4 and leaves a free bucket to end every probe.
	size, bits := 1, uint(0)
	for 3*size <= 4*len(ms) {
		size <<= 1
		bits++
	}
	ix := &Index{K: cfg.K, W: cfg.W, RefLen: len(ref),
		buckets: make([]bucket, size), shift: 64 - bits}
	for i := range ix.buckets {
		ix.buckets[i].key = emptyKey
	}
	slots := make([]uint32, len(ms))
	for i, m := range ms {
		s := ix.slot(m.Hash)
		ix.buckets[s].key = m.Hash
		ix.buckets[s].cnt++
		slots[i] = uint32(s)
	}
	total := uint32(0)
	for i := range ix.buckets {
		b := &ix.buckets[i]
		if b.cnt > uint32(cfg.MaxOccurrences) {
			b.cnt = 0
		}
		if b.cnt > 0 {
			ix.seeds++
		}
		b.off = total
		total += b.cnt
	}
	// Fill with off as the write cursor, then rewind it.
	ix.occ = make([]uint32, total)
	for i, m := range ms {
		b := &ix.buckets[slots[i]]
		if b.cnt == 0 {
			continue
		}
		v := uint32(m.Pos) << 1
		if m.Rev {
			v |= 1
		}
		ix.occ[b.off] = v
		b.off++
	}
	for i := range ix.buckets {
		ix.buckets[i].off -= ix.buckets[i].cnt
	}
	return ix, nil
}

// BuildIndexRaw indexes a raw ASCII reference.
func BuildIndexRaw(ref []byte, cfg IndexConfig) (*Index, error) {
	return BuildIndex(dna.EncodeSeq(ref), cfg)
}

// Seeds returns the number of distinct indexed minimizers.
func (ix *Index) Seeds() int { return ix.seeds }

// occurrences returns the reference hits of a minimizer hash, packed as
// pos<<1 | strand; empty when the hash is absent or filtered (a free
// bucket has cnt 0).
func (ix *Index) occurrences(h uint64) []uint32 {
	b := &ix.buckets[ix.slot(h)]
	return ix.occ[b.off : b.off+b.cnt]
}

// anchor is one seed hit: read position rpos matches reference position
// tpos. For reverse-strand hits, rpos is in the coordinates of the
// reverse-complemented read so chains stay co-linear.
type anchor struct {
	tpos, rpos int32
}

// anchors collects seed hits per relative strand into s's buffers, each
// sorted by (tpos, rpos).
func (ix *Index) anchors(read []byte, s *scratch) (fwd, rev []anchor) {
	readLen := int32(len(read))
	s.mins = appendMinimizers(s.mins[:0], read, ix.K, ix.W, &s.ring)
	fwd, rev = s.fwd[:0], s.rev[:0]
	for _, m := range s.mins {
		for _, v := range ix.occurrences(m.Hash) {
			tpos := int32(v >> 1)
			if m.Rev == (v&1 == 1) {
				//lint:allow hotalloc appends into the pooled anchor buffer; amortized to zero across reads
				fwd = append(fwd, anchor{tpos: tpos, rpos: m.Pos})
			} else {
				//lint:allow hotalloc appends into the pooled anchor buffer; amortized to zero across reads
				rev = append(rev, anchor{tpos: tpos, rpos: readLen - (m.Pos + int32(ix.K))})
			}
		}
	}
	// Each (tpos, rpos) pair occurs at most once per strand, so any
	// correct sort yields the same order.
	slices.SortFunc(fwd, cmpAnchor)
	slices.SortFunc(rev, cmpAnchor)
	s.fwd, s.rev = fwd, rev
	return fwd, rev
}

func cmpAnchor(a, b anchor) int {
	if c := cmp.Compare(a.tpos, b.tpos); c != 0 {
		return c
	}
	return cmp.Compare(a.rpos, b.rpos)
}
