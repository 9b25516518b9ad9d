package core

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

func onesCount(v vec) int {
	n := 0
	for _, x := range v.w {
		n += bits.OnesCount64(x)
	}
	return n
}

func TestVecWords(t *testing.T) {
	cases := map[int]int{1: 1, 63: 1, 64: 1, 65: 2, 128: 2, 129: 3}
	for w, want := range cases {
		if got := wordsFor(w); got != want {
			t.Errorf("wordsFor(%d) = %d want %d", w, got, want)
		}
	}
}

func TestVecBitSetGet(t *testing.T) {
	v := newVec(130)
	idxs := []int{0, 1, 63, 64, 65, 127, 128, 129}
	for _, i := range idxs {
		v.setBit(i, 1)
	}
	for _, i := range idxs {
		if v.bit(i) != 1 {
			t.Errorf("bit %d not set", i)
		}
	}
	if onesCount(v) != len(idxs) {
		t.Errorf("ones = %d want %d", onesCount(v), len(idxs))
	}
	v.setBit(64, 0)
	if v.bit(64) != 0 {
		t.Error("bit 64 still set")
	}
}

func TestVecFill(t *testing.T) {
	v := newVec(100)
	v.fill(true)
	if onesCount(v) != 100 {
		t.Fatalf("ones after fill(true) = %d", onesCount(v))
	}
	// Invariant: pad bits above width stay zero.
	if v.w[1]>>36 != 0 {
		t.Fatal("pad bits set")
	}
	v.fill(false)
	if onesCount(v) != 0 {
		t.Fatal("fill(false) left bits")
	}
}

// refShl1 is a bit-by-bit model of shl1.
func refShl1(v vec, carry uint64) vec {
	out := newVec(v.width)
	for i := v.width - 1; i >= 1; i-- {
		out.setBit(i, v.bit(i-1))
	}
	out.setBit(0, uint(carry&1))
	return out
}

func randVec(rng *rand.Rand, width int) vec {
	v := newVec(width)
	for i := range v.w {
		v.w[i] = rng.Uint64()
	}
	v.normalize()
	return v
}

func TestVecShl1AgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, width := range []int{1, 7, 63, 64, 65, 128, 200} {
		for iter := 0; iter < 50; iter++ {
			v := randVec(rng, width)
			carry := uint64(rng.Intn(2))
			want := refShl1(v, carry)
			got := newVec(width)
			got.shl1(v, carry)
			if !slices.Equal(got.w, want.w) {
				t.Fatalf("width %d: shl1 mismatch\n got %x\nwant %x", width, got.w, want.w)
			}
			// Aliased shift must agree too.
			v.shl1(v, carry)
			if !slices.Equal(v.w, want.w) {
				t.Fatalf("width %d: aliased shl1 mismatch", width)
			}
		}
	}
}

func TestVecBooleanOps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	width := 130
	a, b, c, d := randVec(rng, width), randVec(rng, width), randVec(rng, width), randVec(rng, width)
	out := newVec(width)
	out.and4(a, b, c, d)
	for i := 0; i < width; i++ {
		if out.bit(i) != (a.bit(i) & b.bit(i) & c.bit(i) & d.bit(i)) {
			t.Fatalf("and4 bit %d", i)
		}
	}
	out.or(a, b)
	for i := 0; i < width; i++ {
		if out.bit(i) != (a.bit(i) | b.bit(i)) {
			t.Fatalf("or bit %d", i)
		}
	}
}

func TestVecNewPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("newVec(0) did not panic")
		}
	}()
	newVec(0)
}
