package dfg

import (
	"fmt"

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
	g   *Graph
	cse map[cseKey]Val
	// DisableCSE turns off structural hashing (useful to stress the
	// mappers with redundant graphs).
	DisableCSE bool
}

type cseKey struct {
	op   logic.Op
	a, b NodeID // b = NoNode for unary
}

// NewBuilder returns a Builder over a fresh graph.
func NewBuilder() *Builder {
	return &Builder{g: New(), cse: make(map[cseKey]Val)}
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
		return Val{id: b.g.opInputs[p][0]}
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
	key := makeKey(op, ids)
	if !b.DisableCSE {
		if v, ok := b.cse[key]; ok {
			return v
		}
	}
	out := Val{id: b.g.AddOp(op, ids...)}
	if !b.DisableCSE {
		b.cse[key] = out
	}
	return out
}

func makeKey(op logic.Op, ids []NodeID) cseKey {
	if len(ids) == 1 {
		return cseKey{op: op, a: ids[0], b: NoNode}
	}
	a, c := ids[0], ids[1]
	// Commutative binary ops hash order-independently.
	switch op {
	case logic.And, logic.Or, logic.Xor, logic.Nand, logic.Nor, logic.Xnor:
		if a > c {
			a, c = c, a
		}
	}
	return cseKey{op: op, a: a, b: c}
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
