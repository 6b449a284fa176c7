package aig

import (
	"math/rand"
	"slices"
)

// Combinational equivalence checking over pairs of literals in one shared
// graph — the discharge engine behind the translation validator
// (internal/verify.Equivalent) and the coopt candidate-acceptance gate.
//
// The pipeline, cheapest decision procedure first:
//
//  1. strash   — both sides built through the canonical constructors landed
//                on the same literal. An op-for-op-faithful mapper program
//                proves this way, in O(instructions) nodes and O(1) per
//                output.
//  2. cosim    — 64·simWords random vectors simulated over the whole graph
//                once; any differing lane refutes equivalence and yields a
//                concrete counterexample assignment.
//  3. rebuild  — cosim-indistinguishable pairs are re-expressed in a fresh
//                graph with AC normalization: maximal AND/XOR trees flatten
//                into canonical sorted folds, so balancing and operand
//                reassociation vanish and rewritten-but-equal structures
//                converge to one literal.
//  4. table    — pairs still distinct after the rebuild are miter-checked
//                exhaustively when their joint primary-input support is
//                ≤ maxSupport. Distribution (a·(b+c) vs a·b+a·c) and other
//                non-AC rewrites of small cones prove here.
//
// Anything surviving all four is VerdictUnproven — never silently accepted;
// callers fall back to dynamic checking (coopt keeps its equivalence fuzz as
// exactly that backstop).
//
// The table enumerates in one linear pass: the AND nodes of both cones are
// collected once and sorted by node index — rebuild nodes are created
// children-first, so that order is topological — and each 64-assignment
// batch writes the support words into a dense per-node word slice and
// evaluates the cone front to back.
//
// No budget is caller-settable: the support bound (maxSupport), the
// cosimulation width (simWords), its seed (simSeed) and the AC-flattening
// cap (flatCap) are fixed.

// Verdict is the outcome of one equivalence query.
type Verdict uint8

// Verdicts.
const (
	VerdictProven   Verdict = iota // sides are the same Boolean function
	VerdictRefuted                 // a counterexample assignment exists
	VerdictUnproven                // undecided within the static budget
)

func (v Verdict) String() string {
	switch v {
	case VerdictProven:
		return "proven"
	case VerdictRefuted:
		return "refuted"
	case VerdictUnproven:
		return "unproven"
	}
	return "Verdict(?)"
}

// Fixed prover budgets.
const (
	maxSupport = 16  // joint primary-input support the table enumerates (64Ki assignments)
	simWords   = 8   // 64-lane random words cosimulated per input (512 vectors)
	simSeed    = 1   // seed of the cosimulation vectors
	flatCap    = 256 // leaf cap of one flattened AND/XOR tree in AC normalization
)

// PairVerdict is the result for one (a, b) literal pair.
type PairVerdict struct {
	Verdict Verdict
	// Method names the decision procedure that settled the pair: "strash",
	// "cosim", "rebuild" or "table"; "unproven" when none did.
	Method string
	// Counter is a full primary-input assignment on which the two sides
	// differ; non-nil exactly when Verdict == VerdictRefuted.
	Counter []bool
}

// EquivStats reports how much work CheckOutputs did.
type EquivStats struct {
	RebuiltNodes int // AND nodes in the normalized rebuild graph
	TableProofs  int // final per-pair exhaustive checks run
}

// CheckOutputs decides, for every index i, whether literals a[i] and b[i] of
// g compute the same Boolean function of g's primary inputs.
func CheckOutputs(g *Graph, a, b []Lit) ([]PairVerdict, EquivStats) {
	if len(a) != len(b) {
		panic("aig: CheckOutputs literal slices differ in length")
	}
	out := make([]PairVerdict, len(a))
	open := make([]int, 0, len(a))
	for i := range a {
		if a[i] == b[i] {
			out[i] = PairVerdict{Verdict: VerdictProven, Method: "strash"}
		} else {
			open = append(open, i)
		}
	}
	if len(open) == 0 {
		return out, EquivStats{}
	}

	p := &prover{g: g}
	p.cosim()
	still := open[:0]
	for _, i := range open {
		if ctr, differ := p.refute(a[i], b[i]); differ {
			out[i] = PairVerdict{Verdict: VerdictRefuted, Method: "cosim", Counter: ctr}
		} else {
			still = append(still, i)
		}
	}
	open = still
	if len(open) == 0 {
		return out, p.stats()
	}

	roots := make([]Lit, 0, 2*len(open))
	for _, i := range open {
		roots = append(roots, a[i], b[i])
	}
	p.rebuild(roots)
	for _, i := range open {
		ra, rb := p.reprLit(a[i]), p.reprLit(b[i])
		if ra == rb {
			out[i] = PairVerdict{Verdict: VerdictProven, Method: "rebuild"}
			continue
		}
		out[i] = p.table(ra, rb)
	}
	return out, p.stats()
}

// prover holds the shared state of one CheckOutputs run.
type prover struct {
	g *Graph

	simG []uint64 // simWords words per source node, input-seeded random cosim

	h    *Graph // normalized rebuild target
	repr []Lit  // source node -> rebuild literal

	andFlat [][]Lit    // source node -> flattened AND leaf list (G literals)
	xorFlat [][]uint32 // source node -> flattened XOR leaf nodes (positive)
	xorPar  []bool     // parity stripped while flattening xorFlat

	// table scratch, reused across checks: per-rebuild-node visit epochs
	// and batch words, and the sorted AND cone and support of the current
	// check.
	mark  []uint32
	epoch uint32
	word  []uint64
	cone  []uint32
	sup   []int32
	stack []uint32

	tables int
}

func (p *prover) stats() EquivStats {
	st := EquivStats{TableProofs: p.tables}
	if p.h != nil {
		st.RebuiltNodes = p.h.NumAnds()
	}
	return st
}

// cosim fills simG: simWords random 64-lane words per input, propagated
// through every node (nodes are stored in topological order by
// construction, children always precede parents).
func (p *prover) cosim() {
	g, R := p.g, simWords
	rng := rand.New(rand.NewSource(simSeed))
	p.simG = make([]uint64, len(g.nodes)*R)
	for i, nd := range g.nodes {
		switch nd.kind {
		case kindInput:
			for r := 0; r < R; r++ {
				p.simG[i*R+r] = rng.Uint64()
			}
		case kindAnd:
			an, bn := int(nd.a.node()), int(nd.b.node())
			ac, bc := nd.a.complement(), nd.b.complement()
			for r := 0; r < R; r++ {
				wa, wb := p.simG[an*R+r], p.simG[bn*R+r]
				if ac {
					wa = ^wa
				}
				if bc {
					wb = ^wb
				}
				p.simG[i*R+r] = wa & wb
			}
		}
	}
}

func (p *prover) simLitG(l Lit, r int) uint64 {
	w := p.simG[int(l.node())*simWords+r]
	if l.complement() {
		w = ^w
	}
	return w
}

// refute compares the cosim signatures of a and b; on a difference it
// extracts the full input assignment of the first differing lane.
func (p *prover) refute(a, b Lit) ([]bool, bool) {
	for r := 0; r < simWords; r++ {
		if diff := p.simLitG(a, r) ^ p.simLitG(b, r); diff != 0 {
			lane := 0
			for diff&1 == 0 {
				diff >>= 1
				lane++
			}
			ctr := make([]bool, p.g.nInputs)
			for i := 0; i < p.g.nInputs; i++ {
				ctr[i] = p.simG[(1+i)*simWords+r]>>uint(lane)&1 == 1
			}
			return ctr, true
		}
	}
	return nil, false
}

// --- AC-normalizing rebuild ---------------------------------------------

// rebuild re-expresses the cones of roots in a fresh graph p.h: AND/XOR
// trees flatten (flatCap-bounded) and refold through the canonical sorted
// constructors, so every association and operand order of one tree lands on
// the same rebuild literal.
func (p *prover) rebuild(roots []Lit) {
	g := p.g
	p.h = New(g.nInputs)
	inCone, _ := rawCone(g, roots)
	n := len(g.nodes)
	p.repr = make([]Lit, n)
	p.andFlat = make([][]Lit, n)
	p.xorFlat = make([][]uint32, n)
	p.xorPar = make([]bool, n)
	for i := 0; i <= g.nInputs && i < n; i++ {
		p.repr[i] = Lit(uint32(i) << 1)
	}
	for i := 1 + g.nInputs; i < n; i++ {
		if !inCone[i] || g.nodes[i].kind != kindAnd {
			continue
		}
		if _, _, ok := g.matchXor(uint32(i)); ok {
			leaves, parity := p.flattenXor(uint32(i))
			lits := make([]Lit, len(leaves))
			for k, leaf := range leaves {
				lits[k] = p.repr[leaf]
			}
			v := p.h.XorN(lits)
			if parity {
				v = v.Not()
			}
			p.repr[i] = v
			continue
		}
		leaves := p.flattenAnd(uint32(i))
		lits := make([]Lit, len(leaves))
		for k, leaf := range leaves {
			lits[k] = p.reprLit(leaf)
		}
		p.repr[i] = p.h.andSorted(lits) // an AND node has at least two leaves
	}
}

// reprLit maps a source literal to its rebuild literal.
func (p *prover) reprLit(l Lit) Lit {
	return p.repr[l.node()] ^ Lit(l&1)
}

// flattenAnd returns the flatCap-bounded AND leaf list of source node n:
// non-complemented AND children that are not XOR encodings splice their own
// leaf lists in. Lists are memoized per node, so each is assembled once.
func (p *prover) flattenAnd(n uint32) []Lit {
	if p.andFlat[n] != nil {
		return p.andFlat[n]
	}
	nd := p.g.nodes[n]
	leaves := make([]Lit, 0, 4)
	for _, e := range [2]Lit{nd.a, nd.b} {
		sub := []Lit(nil)
		if !e.complement() && p.g.nodes[e.node()].kind == kindAnd {
			if _, _, isx := p.g.matchXor(e.node()); !isx {
				sub = p.flattenAnd(e.node())
			}
		}
		if sub != nil && len(leaves)+len(sub) <= flatCap {
			leaves = append(leaves, sub...)
		} else {
			leaves = append(leaves, e)
		}
	}
	p.andFlat[n] = leaves
	return leaves
}

// flattenXor returns the XOR leaf nodes (positive) and stripped parity of a
// matched XOR encoding rooted at source node n.
func (p *prover) flattenXor(n uint32) ([]uint32, bool) {
	if p.xorFlat[n] != nil {
		return p.xorFlat[n], p.xorPar[n]
	}
	u, w, _ := p.g.matchXor(n)
	leaves := make([]uint32, 0, 4)
	parity := false
	for _, e := range [2]Lit{u, w} {
		if e.complement() {
			parity = !parity
		}
		m := e.node()
		if p.g.nodes[m].kind == kindAnd {
			if _, _, isx := p.g.matchXor(m); isx {
				sub, subPar := p.flattenXor(m)
				if len(leaves)+len(sub) <= flatCap {
					leaves = append(leaves, sub...)
					if subPar {
						parity = !parity
					}
					continue
				}
			}
		}
		leaves = append(leaves, m)
	}
	p.xorFlat[n], p.xorPar[n] = leaves, parity
	return leaves, parity
}

// --- exhaustive table ---------------------------------------------------

// table is the final decision procedure for one pair: exhaustive miter over
// the joint support when it has at most maxSupport inputs, otherwise
// unproven.
func (p *prover) table(ra, rb Lit) PairVerdict {
	cone, sup, ok := p.coneOf(ra.node(), rb.node())
	if !ok {
		return PairVerdict{Verdict: VerdictUnproven, Method: "unproven"}
	}
	p.tables++
	if ctr := p.exhaust(ra, rb, cone, sup); ctr != nil {
		return PairVerdict{Verdict: VerdictRefuted, Method: "table", Counter: ctr}
	}
	return PairVerdict{Verdict: VerdictProven, Method: "table"}
}

// coneOf collects the rebuild cones of a and b: their AND nodes in
// ascending node order, which is topological, and their joint primary-input
// support in ascending input order. It stops early, reporting false, once
// the support exceeds maxSupport. The scratch slices grow with p.h;
// word[0], the constant, is never written and stays 0.
func (p *prover) coneOf(a, b uint32) ([]uint32, []int32, bool) {
	if grow := len(p.h.nodes) - len(p.mark); grow > 0 {
		p.mark = append(p.mark, make([]uint32, grow)...)
		p.word = append(p.word, make([]uint64, grow)...)
	}
	p.epoch++
	cone, sup, stack := p.cone[:0], p.sup[:0], append(p.stack[:0], a, b)
	defer func() { p.cone, p.sup, p.stack = cone, sup, stack }()
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p.mark[n] == p.epoch {
			continue
		}
		p.mark[n] = p.epoch
		switch nd := &p.h.nodes[n]; nd.kind {
		case kindInput:
			if sup = append(sup, int32(n-1)); len(sup) > maxSupport {
				return nil, nil, false
			}
		case kindAnd:
			cone = append(cone, n)
			stack = append(stack, nd.a.node(), nd.b.node())
		}
	}
	slices.Sort(cone)
	slices.Sort(sup)
	return cone, sup, true
}

// exhaust checks fa == fb over every assignment of the support variables,
// evaluating cone (the AND nodes of both sides, topologically ordered). It
// returns nil when equal, or the first differing assignment as a full
// primary-input vector (inputs outside sup are 0; sup covers the structural
// support of both sides, so no cone reaches them).
func (p *prover) exhaust(fa, fb Lit, cone []uint32, sup []int32) []bool {
	w := p.word
	total := uint64(1) << uint(len(sup))
	for base := uint64(0); base < total; base += 64 {
		for j, v := range sup {
			switch {
			case j < 6:
				w[1+v] = varPattern[j]
			case base>>uint(j)&1 == 1:
				w[1+v] = ^uint64(0)
			default:
				w[1+v] = 0
			}
		}
		for _, n := range cone {
			nd := &p.h.nodes[n]
			wa, wb := w[nd.a.node()], w[nd.b.node()]
			if nd.a.complement() {
				wa = ^wa
			}
			if nd.b.complement() {
				wb = ^wb
			}
			w[n] = wa & wb
		}
		if diff := litWord(w, fa) ^ litWord(w, fb); diff != 0 {
			lane := uint64(0)
			for diff&1 == 0 {
				diff >>= 1
				lane++
			}
			assign := base | lane
			ctr := make([]bool, p.h.nInputs)
			for j, v := range sup {
				ctr[v] = assign>>uint(j)&1 == 1
			}
			return ctr
		}
	}
	return nil
}

// litWord reads literal l's batch word out of the per-node words w.
func litWord(w []uint64, l Lit) uint64 {
	return w[l.node()] ^ -uint64(l&1)
}

// varPattern[j] is the canonical 64-lane enumeration pattern of support
// variable j < 6: lane t carries bit j of assignment t.
var varPattern = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}
