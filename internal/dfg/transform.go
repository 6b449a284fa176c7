package dfg

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"sherlock/internal/logic"
)

// SubstituteOptions controls the node-substitution transform (Sec. 3.3.3):
// two op nodes of the same associative type, where the producer's output is
// used exactly once (by the consumer), fuse into one multi-operand node.
type SubstituteOptions struct {
	// MaxOperands bounds the arity of fused nodes; it corresponds to the
	// maximum number of simultaneously activated rows the target supports.
	// Must be at least 2.
	MaxOperands int
	// Fraction in [0,1] selects how many of the applicable fusions are
	// performed, the x-axis knob of Fig. 6. 1 applies all.
	Fraction float64
	// Seed makes partial selection deterministic.
	Seed int64
	// CostOf, when non-nil, ranks fusion candidates: lower-cost fusions
	// are taken first when Fraction < 1. The optimized flow passes the
	// technology's decision-failure estimate here, so the fusions picked
	// are those that buy latency at the least reliability cost (Sec. 4.2:
	// "in opt the choice of the best operations to merge highly depends
	// on these decisions"). Nil falls back to a seeded random order (the
	// mapping-blind baseline, whose Fig. 6 curve is near-linear).
	CostOf func(op logic.Op, fusedArity int) float64
}

// SubstituteStats reports what the transform did.
type SubstituteStats struct {
	Candidates int // fusion opportunities found
	Applied    int // fusions performed
	OpsBefore  int
	OpsAfter   int
	MaxArity   int
}

type mergeEdge struct {
	producer NodeID
	consumer NodeID
}

// SubstituteNodes returns a transformed copy of g with same-type associative
// op chains flattened into multi-operand nodes, plus statistics. The graph
// g is not modified.
func SubstituteNodes(g *Graph, opt SubstituteOptions) (*Graph, SubstituteStats) {
	if opt.MaxOperands < 2 {
		panic(fmt.Sprintf("dfg: MaxOperands %d < 2", opt.MaxOperands))
	}
	if !(opt.Fraction >= 0 && opt.Fraction <= 1) { // NaN too
		panic(fmt.Sprintf("dfg: Fraction %g outside [0,1]", opt.Fraction))
	}
	stats := SubstituteStats{OpsBefore: g.numOps}

	// Enumerate candidate fusion edges in deterministic order. A candidate's
	// producer output has exactly one consumer, so the producer alone
	// identifies the edge.
	var candidates []mergeEdge
	for _, c := range g.TopoOps() {
		t := g.OpType(c)
		if !t.Associative() {
			continue
		}
		for _, in := range g.opInputs[c] {
			p := g.Producer(in)
			if p == NoNode || g.OpType(p) != t {
				continue
			}
			if len(g.consumers[in]) != 1 || g.IsOutput(in) {
				continue
			}
			candidates = append(candidates, mergeEdge{producer: p, consumer: c})
		}
	}
	stats.Candidates = len(candidates)

	selected := make([]bool, len(g.nodes)) // by candidate producer
	n := int(float64(len(candidates))*opt.Fraction + 0.5)
	if opt.Fraction >= 1 {
		n = len(candidates)
	}
	order := make([]int, len(candidates))
	for i := range order {
		order[i] = i
	}
	if opt.CostOf != nil {
		cost := make([]float64, len(candidates))
		for i, cand := range candidates {
			t := g.OpType(cand.consumer)
			fusedArity := len(g.opInputs[cand.consumer]) + len(g.opInputs[cand.producer]) - 1
			if fusedArity > opt.MaxOperands {
				fusedArity = opt.MaxOperands
			}
			cost[i] = opt.CostOf(t, fusedArity)
		}
		sort.SliceStable(order, func(i, j int) bool { return cost[order[i]] < cost[order[j]] })
	} else {
		order = rand.New(rand.NewSource(opt.Seed)).Perm(len(candidates))
	}
	for i := 0; i < n; i++ {
		selected[candidates[order[i]].producer] = true
	}

	// Flatten in topo order. flat[op] is the op's effective input list
	// after absorbing selected single-use same-type producers.
	flat := make([][]NodeID, len(g.nodes))
	absorbed := make([]bool, len(g.nodes))
	for _, c := range g.TopoOps() {
		ins := g.opInputs[c]
		t := g.OpType(c)
		out := make([]NodeID, 0, len(ins))
		out = append(out, ins...)
		if t.Associative() {
			for _, in := range ins {
				p := g.Producer(in)
				if p == NoNode || !selected[p] {
					continue
				}
				if absorbed[p] {
					// Producer already gone (cannot happen: single
					// consumer), but guard anyway.
					continue
				}
				splice := flat[p]
				// Arity bound: replacing one operand with len(splice).
				if len(out)-1+len(splice) > opt.MaxOperands {
					continue
				}
				if t == logic.Xor && wouldDuplicate(out, in, splice) {
					// x XOR x cancels; fusing a duplicate would change
					// semantics under single-activation hardware. Skip.
					continue
				}
				out = removeOne(out, in)
				out = append(out, splice...)
				if t == logic.And || t == logic.Or {
					out = dedup(out)
				}
				absorbed[p] = true
				stats.Applied++
			}
		}
		flat[c] = out
	}

	// Rebuild: every surviving op keeps its result operand.
	n2 := New()
	remap := make([]NodeID, len(g.nodes)) // old -> new; NoNode until mapped
	for i := range remap {
		remap[i] = NoNode
	}
	for _, in := range g.inputs {
		remap[in] = n2.AddInput(g.Name(in))
	}
	for id := range g.nodes {
		opID := NodeID(id)
		if g.nodes[id].kind != KindOp || absorbed[opID] {
			continue
		}
		ins := flat[opID]
		mapped := make([]NodeID, len(ins))
		for i, in := range ins {
			m := remap[in]
			if m == NoNode {
				panic(fmt.Sprintf("dfg: substitution lost operand %q", g.Name(in)))
			}
			mapped[i] = m
		}
		oldOut := g.opOutput[opID]
		var newOut NodeID
		if len(mapped) == 1 && !g.nodes[id].op.IsUnary() {
			// Dedup collapsed a binary op to a single distinct operand
			// (e.g. AND(x,x)); emit a copy to preserve the operand.
			newOut = n2.AddOpNamed(logic.Copy, g.Name(oldOut), mapped[0])
		} else {
			newOut = n2.AddOpNamed(g.nodes[id].op, g.Name(oldOut), mapped...)
		}
		remap[oldOut] = newOut
		if len(mapped) > stats.MaxArity {
			stats.MaxArity = len(mapped)
		}
	}
	for i, out := range g.outputs {
		m := remap[out]
		if m == NoNode {
			panic(fmt.Sprintf("dfg: substitution lost output %q", g.Name(out)))
		}
		n2.MarkOutputNamed(m, g.outputAlias[i])
	}
	stats.OpsAfter = n2.numOps
	return n2, stats
}

// wouldDuplicate reports whether splicing splice in place of removed would
// repeat an operand. Fused arities are bounded by MaxOperands, so linear
// scans beat a set.
func wouldDuplicate(current []NodeID, removed NodeID, splice []NodeID) bool {
	for i, id := range splice {
		if id != removed && slices.Contains(current, id) || slices.Contains(splice[:i], id) {
			return true
		}
	}
	return false
}

func removeOne(list []NodeID, id NodeID) []NodeID {
	out := make([]NodeID, 0, len(list)-1)
	removed := false
	for _, x := range list {
		if x == id && !removed {
			removed = true
			continue
		}
		out = append(out, x)
	}
	return out
}

func dedup(list []NodeID) []NodeID {
	out := list[:0]
	for _, x := range list {
		if !slices.Contains(out, x) {
			out = append(out, x)
		}
	}
	return out
}

// NANDLowerStats reports the effect of LowerToNAND.
type NANDLowerStats struct {
	OpsBefore int
	OpsAfter  int
	NotsAdded int
}

// LowerToNAND rewrites OR/NOR/XOR/XNOR operations into NAND/AND/NOT form.
// On STT-MRAM the sensing margins of OR- and XOR-type scouting reads are
// poor (Sec. 4.2, Fig. 6b); AND/NAND-type reads keep the wide margin, and
// NOT is a free row-buffer operation. Multi-operand ORs keep their arity
// (OR(k) -> NAND over k inverted operands); multi-operand XORs are expanded
// to binary trees before lowering.
func LowerToNAND(g *Graph) (*Graph, NANDLowerStats) {
	stats := NANDLowerStats{OpsBefore: g.numOps}
	b := NewBuilder()
	lost := Val{id: NoNode} // remap entry of an operand not yet lowered
	remap := make([]Val, len(g.nodes))
	for i := range remap {
		remap[i] = lost
	}
	for _, in := range g.inputs {
		remap[in] = b.Input(g.Name(in))
	}
	xor2 := func(x, y Val) Val {
		return b.Nand(b.Nand(x, b.Not(y)), b.Nand(b.Not(x), y))
	}
	for id := range g.nodes {
		opID := NodeID(id)
		if g.nodes[id].kind != KindOp {
			continue
		}
		ins := make([]Val, len(g.opInputs[opID]))
		for i, in := range g.opInputs[opID] {
			v := remap[in]
			if v == lost {
				panic(fmt.Sprintf("dfg: lowering lost operand %q", g.Name(in)))
			}
			ins[i] = v
		}
		var out Val
		switch t := g.nodes[id].op; t {
		case logic.And, logic.Nand:
			out = b.OpN(t, ins...)
		case logic.Not, logic.Copy:
			if t == logic.Not {
				out = b.Not(ins[0])
			} else {
				out = b.Copy(ins[0])
			}
		case logic.Or:
			out = b.OpN(logic.Nand, b.notAll(ins)...)
		case logic.Nor:
			out = b.OpN(logic.And, b.notAll(ins)...)
		case logic.Xor, logic.Xnor:
			acc := ins[0]
			for _, v := range ins[1:] {
				acc = xor2(acc, v)
			}
			if t == logic.Xnor {
				acc = b.Not(acc)
			}
			out = acc
		default:
			panic(fmt.Sprintf("dfg: lowering unknown op %v", t))
		}
		remap[g.opOutput[opID]] = out
	}
	for i, o := range g.outputs {
		v := remap[o]
		if v == lost {
			panic(fmt.Sprintf("dfg: lowering lost output %q", g.Name(o)))
		}
		name := g.outputName(i)
		if v.isConst {
			panic(fmt.Sprintf("dfg: lowering folded output %q to a constant", name))
		}
		b.g.MarkOutputNamed(v.id, name)
	}
	out := b.Graph()
	stats.OpsAfter = out.numOps
	for _, op := range out.OpNodes() {
		if out.OpType(op) == logic.Not {
			stats.NotsAdded++
		}
	}
	return out, stats
}

func (b *Builder) notAll(vs []Val) []Val {
	out := make([]Val, len(vs))
	for i, v := range vs {
		out[i] = b.Not(v)
	}
	return out
}

// OpN emits a single (possibly multi-operand) node of the given type. For
// And/Or-family ops duplicate operands are removed; a node collapsing to a
// single operand degenerates to Copy (or Not for inverting types).
func (b *Builder) OpN(op logic.Op, vs ...Val) Val {
	if op.IsUnary() {
		if len(vs) != 1 {
			panic(fmt.Sprintf("dfg: OpN %v with %d operands", op, len(vs)))
		}
		if op == logic.Not {
			return b.Not(vs[0])
		}
		return b.Copy(vs[0])
	}
	ids := make([]NodeID, 0, len(vs))
	for _, v := range vs {
		if v.isConst {
			panic("dfg: OpN over constant value")
		}
		switch op {
		case logic.And, logic.Nand, logic.Or, logic.Nor:
			if slices.Contains(ids, v.id) {
				continue
			}
		}
		ids = append(ids, v.id)
	}
	if len(ids) == 1 {
		v := Val{id: ids[0]}
		switch op {
		case logic.Nand, logic.Nor, logic.Xnor:
			return b.Not(v)
		default:
			return v
		}
	}
	if len(ids) == 2 {
		// Route binary nodes through the folding/CSE path.
		a, y := Val{id: ids[0]}, Val{id: ids[1]}
		switch op {
		case logic.And:
			return b.And(a, y)
		case logic.Or:
			return b.Or(a, y)
		case logic.Xor:
			return b.Xor(a, y)
		case logic.Nand:
			return b.Nand(a, y)
		case logic.Nor:
			return b.Nor(a, y)
		case logic.Xnor:
			return b.Xnor(a, y)
		}
	}
	return Val{id: b.g.AddOp(op, ids...)}
}
