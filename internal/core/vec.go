package core

import "fmt"

// vec is a fixed-width multi-word bitvector: one automaton row of the
// multi-word window path (m > 64). Bit i lives in word i/64 at position
// i%64. Bits at and above width in the last word are kept zero
// (normalized form). Operations write into an explicit receiver, so the
// kernel allocates nothing per window.
type vec struct {
	width int
	w     []uint64
}

// wordsFor returns the number of 64-bit words needed for width bits.
func wordsFor(width int) int { return (width + 63) / 64 }

// newVec returns a zeroed vector of the given width.
func newVec(width int) vec {
	if width <= 0 {
		panic(fmt.Sprintf("core: invalid bitvector width %d", width))
	}
	return vec{width: width, w: make([]uint64, wordsFor(width))}
}

// mask returns the valid-bit mask for the last word.
func (v vec) mask() uint64 {
	r := uint(v.width % 64)
	if r == 0 {
		return ^uint64(0)
	}
	return (uint64(1) << r) - 1
}

// normalize clears the bits above width in the last word.
func (v vec) normalize() {
	v.w[len(v.w)-1] &= v.mask()
}

// fill sets every bit within width when b is true, or clears every bit
// when b is false.
func (v vec) fill(b bool) {
	var x uint64
	if b {
		x = ^uint64(0)
	}
	for i := range v.w {
		v.w[i] = x
	}
	if b {
		v.normalize()
	}
}

// bit returns bit i (0 <= i < width).
func (v vec) bit(i int) uint {
	return uint(v.w[i/64]>>(uint(i)%64)) & 1
}

// setBit sets bit i to b.
func (v vec) setBit(i int, b uint) {
	w, s := i/64, uint(i)%64
	v.w[w] = (v.w[w] &^ (uint64(1) << s)) | (uint64(b&1) << s)
}

// shl1 sets v = src << 1 within width, shifting in carry (0 or 1) at bit
// 0. Bits shifted beyond width are discarded. v and src may alias.
func (v vec) shl1(src vec, carry uint64) {
	c := carry & 1
	for i := 0; i < len(src.w); i++ {
		hi := src.w[i] >> 63
		v.w[i] = src.w[i]<<1 | c
		c = hi
	}
	v.normalize()
}

// and4 sets v = a & b & c & d. v may alias any operand.
func (v vec) and4(a, b, c, d vec) {
	for i := range v.w {
		v.w[i] = a.w[i] & b.w[i] & c.w[i] & d.w[i]
	}
}

// or sets v = a | b. v may alias either operand.
func (v vec) or(a, b vec) {
	for i := range v.w {
		v.w[i] = a.w[i] | b.w[i]
	}
}
