package aig

import (
	"fmt"

	"sherlock/internal/dfg"
	"sherlock/internal/logic"
)

// Cone is a kernel lifted out of a dfg.Graph: an AIG plus the bookkeeping
// needed to lower it back into an equivalent DFG with the same input and
// output names. The resynthesis passes transform the AIG; Lower re-emits a
// DFG through the standard builder (CSE, folding) with polarity-aware
// operator selection.
type Cone struct {
	G           *Graph
	Outs        []Lit    // one literal per kernel output, in Outputs() order
	InputNames  []string // graph input i = AIG input i
	OutputNames []string // user-facing names, parallel to Outs
}

// WithNet returns a Cone over a transformed net (same interface, new
// graph/output literals) — how pass pipelines thread through.
func (c *Cone) WithNet(g *Graph, outs []Lit) *Cone {
	return &Cone{G: g, Outs: outs, InputNames: c.InputNames, OutputNames: c.OutputNames}
}

// Fingerprint canonically hashes the cone structure plus its I/O naming —
// the co-optimizer's candidate cache key.
func (c *Cone) Fingerprint() [32]byte {
	return c.G.Fingerprint(c.Outs)
}

// Size returns the cone's AND-node count.
func (c *Cone) Size() int { return ConeSize(c.G, c.Outs) }

// LiftDFG folds a boolean DFG into an AIG: every sense op becomes AND
// structure (inverted ops become complement edges, XOR its three-AND
// encoding), NOT becomes a complement, COPY an alias. Multi-operand ops
// fold through the canonical sorted n-ary constructors (AndN/OrN/XorN), so
// operand order never changes the built structure — the property the
// translation validator (internal/verify.Equivalent) relies on to discharge
// mapper output against the kernel by literal equality. The result is the
// substrate the resynthesis passes operate on; Lower inverts the encoding.
func LiftDFG(src *dfg.Graph) (*Cone, error) {
	ins := src.Inputs()
	g := New(len(ins))
	lits := make([]Lit, src.NumNodes())
	names := make([]string, len(ins))
	for i, in := range ins {
		lits[in] = g.Input(i)
		names[i] = src.Name(in)
	}
	var buf []dfg.NodeID
	var ops []Lit
	for _, op := range src.TopoOps() {
		buf = src.AppendOpInputs(op, buf[:0])
		if len(buf) == 0 {
			return nil, fmt.Errorf("aig: op %d has no operands", op)
		}
		ops = ops[:0]
		for _, in := range buf {
			ops = append(ops, lits[in])
		}
		t := src.OpType(op)
		var v Lit
		switch t {
		case logic.Not:
			v = ops[0].Not()
		case logic.Copy:
			v = ops[0]
		case logic.And, logic.Nand:
			v = g.AndN(ops)
			if t == logic.Nand {
				v = v.Not()
			}
		case logic.Or, logic.Nor:
			v = g.OrN(ops)
			if t == logic.Nor {
				v = v.Not()
			}
		case logic.Xor, logic.Xnor:
			v = g.XorN(ops)
			if t == logic.Xnor {
				v = v.Not()
			}
		default:
			return nil, fmt.Errorf("aig: cannot lift op %v", t)
		}
		lits[src.OpOutput(op)] = v
	}
	outs := src.Outputs()
	c := &Cone{
		G:           g,
		Outs:        make([]Lit, len(outs)),
		InputNames:  names,
		OutputNames: src.OutputNames(),
	}
	for i, o := range outs {
		c.Outs[i] = lits[o]
	}
	return c, nil
}

// Lower emits the cone back into a fresh DFG. Emission is polarity-aware:
// each node is materialized in the polarity its consumers demand, so
// complement edges are absorbed into the native inverted sense ops instead
// of NOT instructions —
//
//	AND demanded negated        → NAND
//	AND over two complements    → NOR (positive) / OR (negated)
//	matched XOR encoding        → XOR/XNOR (fanin complements fold into
//	                              the op choice, never into a NOT)
//
// Nodes demanded in both polarities emit positive plus one CSE-shared NOT.
// Every original input is redeclared (in order) even if resynthesis proved
// it redundant, so the kernel signature — and the mapper's host-write
// protocol — is preserved.
func (c *Cone) Lower() (*dfg.Graph, error) {
	g := c.G
	n := len(g.nodes)
	first := 1 + g.nInputs
	isXor := make([]bool, n)
	xorU := make([]Lit, n)
	xorW := make([]Lit, n)
	for i := first; i < n; i++ {
		if u, w, ok := g.matchXor(uint32(i)); ok {
			isXor[i], xorU[i], xorW[i] = true, u, w
		}
	}

	// Demand propagation, reverse topological: which polarity(ies) of each
	// node the effective consumers need.
	posD := make([]bool, n)
	negD := make([]bool, n)
	demand := func(l Lit) {
		if l.complement() {
			negD[l.node()] = true
		} else {
			posD[l.node()] = true
		}
	}
	for _, o := range c.Outs {
		if !o.IsConst() {
			demand(o)
		}
	}
	for i := n - 1; i >= first; i-- {
		if !posD[i] && !negD[i] {
			continue
		}
		if isXor[i] {
			// XOR fanin parity folds into the op choice: children are
			// always wanted positive.
			posD[xorU[i].node()] = true
			posD[xorW[i].node()] = true
			continue
		}
		nd := g.nodes[i]
		if nd.a.complement() && nd.b.complement() {
			// NOR/OR form consumes the children positively.
			posD[nd.a.node()] = true
			posD[nd.b.node()] = true
		} else {
			demand(nd.a)
			demand(nd.b)
		}
	}

	b := dfg.NewBuilder()
	vals := make([]dfg.Val, n)
	haveVal := make([]bool, n)
	negVal := make([]bool, n) // vals[i] carries ¬node i
	for i, name := range c.InputNames {
		vals[1+i] = b.Input(name)
		haveVal[1+i] = true
	}
	litval := func(l Lit) (dfg.Val, error) {
		if l.IsConst() {
			return b.Const(l == Const1), nil
		}
		m := l.node()
		if !haveVal[m] {
			return dfg.Val{}, fmt.Errorf("aig: lowering referenced unemitted node %d", m)
		}
		v := vals[m]
		if l.complement() != negVal[m] {
			v = b.Not(v)
		}
		return v, nil
	}
	for i := first; i < n; i++ {
		if !posD[i] && !negD[i] {
			continue
		}
		neg := negD[i] && !posD[i] // primary polarity of the emitted val
		var v dfg.Val
		var err error
		if isXor[i] {
			u, w := xorU[i], xorW[i]
			var vu, vw dfg.Val
			if vu, err = litval(u &^ 1); err != nil {
				return nil, err
			}
			if vw, err = litval(w &^ 1); err != nil {
				return nil, err
			}
			xnor := u.complement() != w.complement()
			if neg {
				xnor = !xnor
			}
			if xnor {
				v = b.Xnor(vu, vw)
			} else {
				v = b.Xor(vu, vw)
			}
		} else {
			nd := g.nodes[i]
			var va, vb dfg.Val
			if nd.a.complement() && nd.b.complement() {
				if va, err = litval(nd.a.Not()); err != nil {
					return nil, err
				}
				if vb, err = litval(nd.b.Not()); err != nil {
					return nil, err
				}
				if neg {
					v = b.Or(va, vb)
				} else {
					v = b.Nor(va, vb)
				}
			} else {
				if va, err = litval(nd.a); err != nil {
					return nil, err
				}
				if vb, err = litval(nd.b); err != nil {
					return nil, err
				}
				if neg {
					v = b.Nand(va, vb)
				} else {
					v = b.And(va, vb)
				}
			}
		}
		vals[i], haveVal[i], negVal[i] = v, true, neg
	}
	for j, o := range c.Outs {
		v, err := litval(o)
		if err != nil {
			return nil, err
		}
		if isConst, _ := v.IsConst(); isConst {
			return nil, fmt.Errorf("aig: output %q lowered to a constant", c.OutputNames[j])
		}
		b.Output(c.OutputNames[j], v)
	}
	return b.Graph(), nil
}
