// Package bitvec provides the dense bit-vector type behind the optimized
// mapper's cluster footprints: one bit per DFG operand, with word-range
// operations so a union or overlap count scans only the words where the
// clusters can have bits.
package bitvec

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Vector is a fixed-length vector of bits. The zero value is an empty
// vector; use New to create one with a given length.
type Vector struct {
	n     int
	words []uint64
}

// New returns an all-zero vector of n bits. It panics if n is negative.
func New(n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return &Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Get reports the value of bit i.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]>>(uint(i)%wordBits)&1 == 1
}

// Set sets bit i to val.
func (v *Vector) Set(i int, val bool) {
	v.check(i)
	if val {
		v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
	} else {
		v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
	}
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Words returns how many 64-bit words back the vector; bit i lives in word
// i/64.
func (v *Vector) Words() int { return len(v.words) }

// IntersectOnesCountRange returns the popcount of a&b over the inclusive
// word-index range [lo, hi]. Callers bound the range to where both vectors
// can have bits, turning full-length scans into short ones.
func IntersectOnesCountRange(a, b *Vector, lo, hi int) int {
	total := 0
	bw := b.words[lo : hi+1]
	for i, w := range a.words[lo : hi+1] {
		total += bits.OnesCount64(w & bw[i])
	}
	return total
}

// OrWithRange ors src's words [lo, hi] (inclusive) into v. When src has no
// bits outside the range, the result equals a full-length or.
func (v *Vector) OrWithRange(src *Vector, lo, hi int) {
	sw := src.words[lo : hi+1]
	vw := v.words[lo : hi+1]
	for i := range vw {
		vw[i] |= sw[i]
	}
}

// OrWithRangeCountNew ors src's words [lo, hi] (inclusive) into v and
// returns how many bits that newly turned on.
func (v *Vector) OrWithRangeCountNew(src *Vector, lo, hi int) int {
	total := 0
	sw := src.words[lo : hi+1]
	vw := v.words[lo : hi+1]
	for i, w := range sw {
		total += bits.OnesCount64(w &^ vw[i])
		vw[i] |= w
	}
	return total
}

// ZeroRange clears words [lo, hi] (inclusive).
func (v *Vector) ZeroRange(lo, hi int) {
	clear(v.words[lo : hi+1])
}
