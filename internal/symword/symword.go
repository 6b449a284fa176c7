// Package symword provides symbolic multi-bit words over DFG values: the
// building blocks for bit-sliced arithmetic circuits (ripple-carry adders,
// two's-complement subtraction, absolute value, comparisons). The bit-sliced
// Sobel and AES workloads are generated with it.
//
// A Word is little-endian: w[0] is the least significant bit. All circuits
// are built through a dfg.Builder, so constant bits fold away and common
// subexpressions are shared.
package symword

import (
	"fmt"

	"sherlock/internal/dfg"
)

// Word is a little-endian vector of symbolic bits.
type Word []dfg.Val

// Inputs declares a width-bit input word named prefix0..prefix{w-1}
// (bit index = significance).
func Inputs(b *dfg.Builder, prefix string, width int) Word {
	w := make(Word, width)
	for i := range w {
		w[i] = b.Input(fmt.Sprintf("%s%d", prefix, i))
	}
	return w
}

// Const builds a compile-time constant word.
func Const(b *dfg.Builder, val uint64, width int) Word {
	w := make(Word, width)
	for i := range w {
		w[i] = b.Const(val>>uint(i)&1 == 1)
	}
	return w
}

// Outputs marks every bit of the word as a kernel output named
// prefix0..prefix{w-1}. Constant bits are materialized via XOR with a
// non-constant bit twice — since that cannot happen for meaningful
// kernels, constant bits are rejected instead.
func Outputs(b *dfg.Builder, prefix string, w Word) {
	for i, bit := range w {
		b.Output(fmt.Sprintf("%s%d", prefix, i), bit)
	}
}

func checkSameWidth(op string, x, y Word) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("symword: %s width mismatch %d vs %d", op, len(x), len(y)))
	}
}

// Xor returns the bitwise XOR of two equal-width words.
func Xor(b *dfg.Builder, x, y Word) Word {
	checkSameWidth("xor", x, y)
	out := make(Word, len(x))
	for i := range x {
		out[i] = b.Xor(x[i], y[i])
	}
	return out
}

// And returns the bitwise AND of two equal-width words.
func And(b *dfg.Builder, x, y Word) Word {
	checkSameWidth("and", x, y)
	out := make(Word, len(x))
	for i := range x {
		out[i] = b.And(x[i], y[i])
	}
	return out
}

// Or returns the bitwise OR of two equal-width words.
func Or(b *dfg.Builder, x, y Word) Word {
	checkSameWidth("or", x, y)
	out := make(Word, len(x))
	for i := range x {
		out[i] = b.Or(x[i], y[i])
	}
	return out
}

// Not returns the bitwise complement.
func Not(b *dfg.Builder, x Word) Word {
	out := make(Word, len(x))
	for i := range x {
		out[i] = b.Not(x[i])
	}
	return out
}

// ZeroExtend returns x widened to width bits with constant zeros.
func ZeroExtend(b *dfg.Builder, x Word, width int) Word {
	if width < len(x) {
		panic(fmt.Sprintf("symword: cannot zero-extend %d bits to %d", len(x), width))
	}
	out := make(Word, width)
	copy(out, x)
	for i := len(x); i < width; i++ {
		out[i] = b.Const(false)
	}
	return out
}

// ShiftLeft returns x << n (wiring only; low bits become constant zero).
// The width grows by n.
func ShiftLeft(b *dfg.Builder, x Word, n int) Word {
	out := make(Word, len(x)+n)
	for i := 0; i < n; i++ {
		out[i] = b.Const(false)
	}
	copy(out[n:], x)
	return out
}

// fullAdder returns (sum, carry) of three bits.
func fullAdder(b *dfg.Builder, x, y, cin dfg.Val) (dfg.Val, dfg.Val) {
	axb := b.Xor(x, y)
	sum := b.Xor(axb, cin)
	carry := b.Or(b.And(x, y), b.And(cin, axb))
	return sum, carry
}

// Add returns x + y as a (width+1)-bit word (ripple-carry; the top bit is
// the carry out).
func Add(b *dfg.Builder, x, y Word) Word {
	checkSameWidth("add", x, y)
	out := make(Word, len(x)+1)
	carry := b.Const(false)
	for i := range x {
		out[i], carry = fullAdder(b, x[i], y[i], carry)
	}
	out[len(x)] = carry
	return out
}

// AddMod returns (x + y) mod 2^width.
func AddMod(b *dfg.Builder, x, y Word) Word {
	return Add(b, x, y)[:len(x)]
}

// Sub returns x - y in two's complement over width bits (the result wraps;
// interpret the top bit as the sign for same-width operands whose
// difference fits).
func Sub(b *dfg.Builder, x, y Word) Word {
	checkSameWidth("sub", x, y)
	out := make(Word, len(x))
	borrowAdd := Not(b, y)
	carry := b.Const(true) // +1 for two's complement
	for i := range x {
		out[i], carry = fullAdder(b, x[i], borrowAdd[i], carry)
	}
	return out
}

// Neg returns -x in two's complement over the same width.
func Neg(b *dfg.Builder, x Word) Word {
	zero := Const(b, 0, len(x))
	return Sub(b, zero, x)
}

// Abs interprets x as two's complement and returns |x| over the same
// width (conditional negation by the sign bit).
func Abs(b *dfg.Builder, x Word) Word {
	if len(x) == 0 {
		return x
	}
	sign := x[len(x)-1]
	neg := Neg(b, x)
	out := make(Word, len(x))
	for i := range x {
		out[i] = b.Mux(sign, neg[i], x[i])
	}
	return out
}

// Mux returns sel ? x : y bitwise over equal-width words.
func Mux(b *dfg.Builder, sel dfg.Val, x, y Word) Word {
	checkSameWidth("mux", x, y)
	out := make(Word, len(x))
	for i := range x {
		out[i] = b.Mux(sel, x[i], y[i])
	}
	return out
}

// GEConst returns the single-bit predicate x >= k for unsigned x.
func GEConst(b *dfg.Builder, x Word, k uint64) dfg.Val {
	// x >= k  <=>  NOT (x < k); compute borrow of x - k.
	ge := b.Const(true)
	for i := range x {
		ki := k>>uint(i)&1 == 1
		if ki {
			// borrow chain: at this bit x_i must be 1 to keep >=,
			// or the higher bits decide.
			ge = b.And(x[i], ge)
		} else {
			ge = b.Or(x[i], ge)
		}
	}
	if k >= 1<<uint(len(x)) {
		return b.Const(false)
	}
	return ge
}

// Equal returns the single-bit predicate x == y.
func Equal(b *dfg.Builder, x, y Word) dfg.Val {
	checkSameWidth("equal", x, y)
	acc := b.Const(true)
	for i := range x {
		acc = b.And(acc, b.Xnor(x[i], y[i]))
	}
	return acc
}

// LessThan returns the single-bit unsigned predicate x < y.
func LessThan(b *dfg.Builder, x, y Word) dfg.Val {
	checkSameWidth("lessthan", x, y)
	lt := b.Const(false)
	for i := 0; i < len(x); i++ { // LSB to MSB
		xiLTyi := b.And(b.Not(x[i]), y[i])
		eq := b.Xnor(x[i], y[i])
		lt = b.Or(xiLTyi, b.And(eq, lt))
	}
	return lt
}
