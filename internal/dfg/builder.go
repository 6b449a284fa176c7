package dfg

import (
	"fmt"
	"math/bits"

	"sherlock/internal/logic"
)

// Val is a value handle used by Builder: either an operand node or a
// compile-time boolean constant. Constants never enter the graph; the
// builder folds them away.
type Val struct {
	id      NodeID
	isConst bool
	k       bool
}

// IsConst reports whether the value folded to a compile-time constant, and
// its value.
func (v Val) IsConst() (bool, bool) { return v.isConst, v.k }

// ID returns the operand node backing a non-constant value.
func (v Val) ID() NodeID {
	if v.isConst {
		panic("dfg: ID of constant Val")
	}
	return v.id
}

// Builder constructs DFGs from expressions, with constant folding, local
// algebraic simplification, and (optional) common-subexpression
// elimination. It is the programmatic equivalent of the paper's
// pycparser-based front-end and is used by the workload generators.
type Builder struct {
	g *Graph
	// cse is an open-addressed, linearly probed set of the ops emit
	// created, each stored as its op ID + 1 (0 is a free slot). A probe
	// compares the candidate against the op's own node record and input
	// edges, so the table holds no copy of any key.
	cse  []int32
	cseN int // occupied slots
	// DisableCSE turns off structural hashing (useful to stress the
	// mappers with redundant graphs).
	DisableCSE bool
}

// NewBuilder returns a Builder over a fresh graph.
func NewBuilder() *Builder {
	return &Builder{g: New(), cse: make([]int32, 64)}
}

// Graph returns the graph built so far. The builder may continue to be
// used afterwards.
func (b *Builder) Graph() *Graph { return b.g }

// Input declares a named kernel input.
func (b *Builder) Input(name string) Val {
	return Val{id: b.g.AddInput(name)}
}

// Inputs declares n inputs named prefix0..prefix{n-1}.
func (b *Builder) Inputs(prefix string, n int) []Val {
	vs := make([]Val, n)
	for i := range vs {
		vs[i] = b.Input(fmt.Sprintf("%s%d", prefix, i))
	}
	return vs
}

// Const returns a compile-time constant value.
func (b *Builder) Const(v bool) Val { return Val{isConst: true, k: v} }

// Output marks v as a kernel output under the given name. Constant outputs
// are materialized through an XNOR/XOR trick is unnecessary here: they are
// rejected, since a bulk-bitwise kernel with a constant output needs no
// computation at all.
func (b *Builder) Output(name string, v Val) {
	if v.isConst {
		panic(fmt.Sprintf("dfg: output %q folded to constant %v", name, v.k))
	}
	if b.g.IsOutput(v.id) {
		// CSE can collapse two outputs onto one operand; each output
		// needs its own cell, so materialize a fresh copy (bypassing the
		// CSE table, which would hand the same copy back).
		v = Val{id: b.g.AddOp(logic.Copy, v.id)}
	}
	b.g.MarkOutputNamed(v.id, name)
}

// Not returns ~a, folding constants and double negation.
func (b *Builder) Not(a Val) Val {
	if a.isConst {
		return b.Const(!a.k)
	}
	// Double negation: if a was produced by a NOT, return its input.
	if p := b.g.Producer(a.id); p != NoNode && b.g.OpType(p) == logic.Not {
		return Val{id: b.g.ins(p)[0]}
	}
	return b.emit(logic.Not, a)
}

// Copy returns a row-clone of a (rarely needed directly; the mappers insert
// copies themselves).
func (b *Builder) Copy(a Val) Val {
	if a.isConst {
		return a
	}
	return b.emit(logic.Copy, a)
}

// And returns a & y.
func (b *Builder) And(a, y Val) Val {
	if a.isConst {
		if !a.k {
			return b.Const(false)
		}
		return y
	}
	if y.isConst {
		if !y.k {
			return b.Const(false)
		}
		return a
	}
	if a.id == y.id {
		return a
	}
	return b.emit(logic.And, a, y)
}

// Or returns a | y.
func (b *Builder) Or(a, y Val) Val {
	if a.isConst {
		if a.k {
			return b.Const(true)
		}
		return y
	}
	if y.isConst {
		if y.k {
			return b.Const(true)
		}
		return a
	}
	if a.id == y.id {
		return a
	}
	return b.emit(logic.Or, a, y)
}

// Xor returns a ^ y.
func (b *Builder) Xor(a, y Val) Val {
	if a.isConst {
		if a.k {
			return b.Not(y)
		}
		return y
	}
	if y.isConst {
		if y.k {
			return b.Not(a)
		}
		return a
	}
	if a.id == y.id {
		return b.Const(false)
	}
	return b.emit(logic.Xor, a, y)
}

// Nand returns ~(a & y).
func (b *Builder) Nand(a, y Val) Val {
	if a.isConst || y.isConst || a.id == y.id {
		return b.Not(b.And(a, y))
	}
	return b.emit(logic.Nand, a, y)
}

// Nor returns ~(a | y).
func (b *Builder) Nor(a, y Val) Val {
	if a.isConst || y.isConst || a.id == y.id {
		return b.Not(b.Or(a, y))
	}
	return b.emit(logic.Nor, a, y)
}

// Xnor returns ~(a ^ y).
func (b *Builder) Xnor(a, y Val) Val {
	if a.isConst || y.isConst || a.id == y.id {
		return b.Not(b.Xor(a, y))
	}
	return b.emit(logic.Xnor, a, y)
}

// AndN folds And over the values.
func (b *Builder) AndN(vs ...Val) Val { return b.fold(b.And, vs) }

// OrN folds Or over the values.
func (b *Builder) OrN(vs ...Val) Val { return b.fold(b.Or, vs) }

// XorN folds Xor over the values.
func (b *Builder) XorN(vs ...Val) Val { return b.fold(b.Xor, vs) }

// Mux returns sel ? t : f, built from AND/OR/NOT.
func (b *Builder) Mux(sel, t, f Val) Val {
	return b.Or(b.And(sel, t), b.And(b.Not(sel), f))
}

func (b *Builder) fold(f func(a, y Val) Val, vs []Val) Val {
	if len(vs) == 0 {
		panic("dfg: fold over zero values")
	}
	acc := vs[0]
	for _, v := range vs[1:] {
		acc = f(acc, v)
	}
	return acc
}

func (b *Builder) emit(op logic.Op, ins ...Val) Val {
	var buf [2]NodeID // every builder op is unary or binary
	ids := buf[:0]
	for _, v := range ins {
		ids = append(ids, v.id)
	}
	if b.DisableCSE {
		return Val{id: b.g.AddOp(op, ids...)}
	}
	x, y := cseOperands(op, ids)
	slot := b.cseFind(op, x, y)
	if e := b.cse[slot]; e != 0 {
		return Val{id: b.g.OpOutput(NodeID(e - 1))}
	}
	out := b.g.AddOp(op, ids...)
	b.cse[slot] = int32(b.g.Producer(out)) + 1
	if b.cseN++; 2*b.cseN > len(b.cse) {
		b.cseGrow()
	}
	return Val{id: out}
}

// cseOperands returns the CSE key operands of a unary or binary op: the
// input and NoNode for a unary op, the inputs in ascending order for a
// commutative one.
func cseOperands(op logic.Op, ids []NodeID) (NodeID, NodeID) {
	if len(ids) == 1 {
		return ids[0], NoNode
	}
	a, c := ids[0], ids[1]
	switch op {
	case logic.And, logic.Or, logic.Xor, logic.Nand, logic.Nor, logic.Xnor:
		if a > c {
			a, c = c, a
		}
	}
	return a, c
}

// cseSlot is the home slot of key (op, x, y) in a table of 2^nbits slots
// (Fibonacci hashing: the top bits of the key times 2^64/phi).
func cseSlot(op logic.Op, x, y NodeID, nbits int) int {
	k := uint64(x)<<32 ^ uint64(uint32(y)) ^ uint64(op)<<58
	return int((k * 0x9E3779B97F4A7C15) >> (64 - nbits))
}

// cseFind returns the slot holding the op with key (op, x, y), or the free
// slot where it belongs. The table is never more than half full.
func (b *Builder) cseFind(op logic.Op, x, y NodeID) int {
	mask := len(b.cse) - 1
	g := b.g
	for i := cseSlot(op, x, y, bits.Len(uint(mask))); ; i = (i + 1) & mask {
		e := b.cse[i]
		if e == 0 {
			return i
		}
		id := NodeID(e - 1)
		if logic.Op(g.nodes[id].op) == op {
			if ex, ey := cseOperands(op, g.ins(id)); ex == x && ey == y {
				return i
			}
		}
	}
}

// cseGrow doubles the table and re-places every op, reading each key back
// from the graph. No two ops in the table share a key, so each probe ends
// at a free slot.
func (b *Builder) cseGrow() {
	old := b.cse
	b.cse = make([]int32, 2*len(old))
	for _, e := range old {
		if e != 0 {
			id := NodeID(e - 1)
			op := b.g.OpType(id)
			x, y := cseOperands(op, b.g.ins(id))
			b.cse[b.cseFind(op, x, y)] = e
		}
	}
}

// InputNames returns the kernel input names in creation order.
func (g *Graph) InputNames() []string {
	names := make([]string, len(g.inputs))
	for i, id := range g.inputs {
		names[i] = g.Name(id)
	}
	return names
}

// OutputNames returns the kernel output names (aliases when present) in
// mark order.
func (g *Graph) OutputNames() []string {
	names := make([]string, len(g.outputs))
	for i := range g.outputs {
		names[i] = g.outputName(i)
	}
	return names
}
