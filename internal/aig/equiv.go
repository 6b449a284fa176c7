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
//                graph with AC normalization (maximal AND/XOR trees flatten
//                into canonical sorted folds, so balancing and operand
//                reassociation vanish) plus fraig-style sweeping (nodes with
//                identical simulation signatures and joint structural
//                support ≤ MaxSupport are proven equal or distinct by
//                exhaustive enumeration and merged). Rewritten-but-equal
//                structures converge to one literal here.
//  4. table    — pairs still distinct after the rebuild are miter-checked
//                exhaustively when their joint support is ≤ MaxSupport.
//
// Anything surviving all four is VerdictUnproven — never silently accepted;
// callers fall back to dynamic checking (coopt keeps its equivalence fuzz as
// exactly that backstop).
//
// Every exhaustive check (sweep merge or final table) enumerates in one
// linear pass: the AND nodes of both cones are collected once and sorted by
// node index — rebuild nodes are created children-first, so that order is
// topological — and each 64-assignment batch writes the support words into
// a dense per-node word slice and evaluates the cone front to back.
//
// Only MaxSupport is a caller-settable budget. The cosimulation width
// (simWords), its seed (simSeed) and the AC-flattening cap (flatCap) are
// fixed: no caller tunes them, and the sweep's signature classes are keyed
// by the fixed-width simulation word array.

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

// EquivOptions bounds the decision procedures.
type EquivOptions struct {
	// MaxSupport caps the joint structural support (in primary inputs) up to
	// which exhaustive truth-table proofs run, both for sweep merges and for
	// the final per-pair miter. Default 16 (64Ki assignments, batched 64 per
	// word).
	MaxSupport int
}

func (o EquivOptions) withDefaults() EquivOptions {
	if o.MaxSupport <= 0 {
		o.MaxSupport = 16
	}
	return o
}

// Fixed prover budgets.
const (
	simWords = 8   // 64-lane random words cosimulated per input (512 vectors)
	simSeed  = 1   // seed of the cosimulation vectors
	flatCap  = 256 // leaf cap of one flattened AND/XOR tree in AC normalization
)

// signature is a rebuild node's simulation words, the sweep's class key.
type signature [simWords]uint64

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
	Merges       int // sweep merges proven by exhaustive enumeration
	TableProofs  int // final per-pair exhaustive checks run
}

// CheckOutputs decides, for every index i, whether literals a[i] and b[i] of
// g compute the same Boolean function of g's primary inputs.
func CheckOutputs(g *Graph, a, b []Lit, opt EquivOptions) ([]PairVerdict, EquivStats) {
	if len(a) != len(b) {
		panic("aig: CheckOutputs literal slices differ in length")
	}
	opt = opt.withDefaults()
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

	p := newProver(g, opt)
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
	g   *Graph
	opt EquivOptions

	simG []uint64 // simWords words per source node, input-seeded random cosim

	h      *Graph   // normalized rebuild target
	simH   []uint64 // simWords words per rebuild node, same input seeds as simG
	supH   [][]int32
	supBig []bool
	alias  []Lit // rebuild node -> representative literal (sweep merges)
	class  map[signature][]uint32
	repr   []Lit // source node -> rebuild literal

	andFlat [][]Lit    // source node -> flattened AND leaf list (G literals)
	xorFlat [][]uint32 // source node -> flattened XOR leaf nodes (positive)
	xorPar  []bool     // parity stripped while flattening xorFlat

	// exhaust scratch, reused across checks: per-rebuild-node visit epochs
	// and batch words, and the sorted AND cone of the current check.
	mark  []uint32
	epoch uint32
	word  []uint64
	cone  []uint32
	stack []uint32

	merges, tables int
}

func newProver(g *Graph, opt EquivOptions) *prover {
	return &prover{g: g, opt: opt, class: map[signature][]uint32{}}
}

func (p *prover) stats() EquivStats {
	st := EquivStats{Merges: p.merges, TableProofs: p.tables}
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

// --- normalized rebuild with sweeping -----------------------------------

// rebuild re-expresses the cones of roots in a fresh graph p.h: AND/XOR
// trees flatten into canonical sorted folds (flatCap-bounded), and every
// created node is swept against simulation-signature classmates, merging
// pairs whose equality an exhaustive check over their joint support proves.
func (p *prover) rebuild(roots []Lit) {
	g, R := p.g, simWords
	p.h = New(g.nInputs)
	p.alias = make([]Lit, 1+g.nInputs)
	p.supH = make([][]int32, 1+g.nInputs)
	p.supBig = make([]bool, 1+g.nInputs)
	p.simH = make([]uint64, (1+g.nInputs)*R)
	for i := 0; i <= g.nInputs; i++ {
		p.alias[i] = Lit(uint32(i) << 1)
		if i > 0 {
			p.supH[i] = []int32{int32(i - 1)}
			copy(p.simH[i*R:(i+1)*R], p.simG[i*R:(i+1)*R])
			p.enroll(uint32(i))
		}
	}

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
				lits[k] = p.resolve(p.repr[leaf])
			}
			v := p.foldXor(lits)
			if parity {
				v = v.Not()
			}
			p.repr[i] = v
			continue
		}
		leaves := p.flattenAnd(uint32(i))
		lits := make([]Lit, len(leaves))
		for k, leaf := range leaves {
			lits[k] = p.resolve(p.repr[leaf.node()]) ^ Lit(leaf&1)
		}
		p.repr[i] = p.foldAnd(lits)
	}
}

// reprLit maps a source literal to its (alias-resolved) rebuild literal.
func (p *prover) reprLit(l Lit) Lit {
	return p.resolve(p.repr[l.node()]) ^ Lit(l&1)
}

func (p *prover) resolve(l Lit) Lit {
	return p.alias[l.node()] ^ Lit(l&1)
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

// foldAnd and foldXor are the rebuild-side canonical folds: the same
// sorted-operand discipline as AndN/XorN, but every fold step is swept as
// its node is created, so partial folds converge onto already-proven
// representatives before the next operand lands. Both sort lits in place.
func (p *prover) foldAnd(lits []Lit) Lit {
	slices.Sort(lits)
	v := Const1
	for _, l := range lits {
		v = p.sweepNew(p.h.And(v, l))
	}
	return v
}

func (p *prover) foldXor(lits []Lit) Lit {
	parity := false
	s := make([]Lit, 0, len(lits))
	for _, l := range lits {
		if l.complement() {
			parity = !parity
			l = l.Not()
		}
		if l == Const0 {
			continue
		}
		s = append(s, l)
	}
	slices.Sort(s)
	v := Const0
	for i := 0; i < len(s); i++ {
		if i+1 < len(s) && s[i+1] == s[i] {
			i++ // x XOR x cancels
			continue
		}
		v = p.sweepNew(p.h.Xor(v, s[i]))
	}
	if parity {
		v = v.Not()
	}
	return v
}

// sweepNew brings the prover's per-node state (simulation, support, alias,
// class index) up to date with nodes the last fold step created, attempting
// a sweep merge for each, and returns l with its alias applied. Simulation
// and support derive from the node's actual children — never their aliases
// — so they stay consistent with the cones exhaust evaluates.
func (p *prover) sweepNew(l Lit) Lit {
	R := simWords
	for n := len(p.alias); n < len(p.h.nodes); n++ {
		nd := p.h.nodes[n]
		an, bn := int(nd.a.node()), int(nd.b.node())
		base := n * R
		p.simH = append(p.simH, make([]uint64, R)...)
		for r := 0; r < R; r++ {
			wa, wb := p.simH[an*R+r], p.simH[bn*R+r]
			if nd.a.complement() {
				wa = ^wa
			}
			if nd.b.complement() {
				wb = ^wb
			}
			p.simH[base+r] = wa & wb
		}
		p.supH = append(p.supH, p.unionSupport(nd.a.node(), nd.b.node()))
		p.supBig = append(p.supBig, p.supH[n] == nil)
		p.alias = append(p.alias, Lit(uint32(n)<<1))
		if m, phase, ok := p.findEqual(uint32(n)); ok {
			p.alias[n] = Lit(m<<1) ^ phase
			p.merges++
		} else {
			p.enroll(uint32(n))
		}
	}
	return p.resolve(l)
}

// unionSupport merges the capped structural supports of two rebuild nodes;
// nil means the union exceeds MaxSupport.
func (p *prover) unionSupport(a, b uint32) []int32 {
	if p.supBig[a] || p.supBig[b] {
		return nil
	}
	sa, sb := p.supH[a], p.supH[b]
	out := make([]int32, 0, len(sa)+len(sb))
	i, j := 0, 0
	for i < len(sa) || j < len(sb) {
		switch {
		case j >= len(sb) || (i < len(sa) && sa[i] < sb[j]):
			out = append(out, sa[i])
			i++
		case i >= len(sa) || sb[j] < sa[i]:
			out = append(out, sb[j])
			j++
		default:
			out = append(out, sa[i])
			i, j = i+1, j+1
		}
		if len(out) > p.opt.MaxSupport {
			return nil
		}
	}
	return out
}

// phase is a rebuild node's simulation bit in lane 0 of word 0.
func (p *prover) phase(n uint32) Lit {
	return Lit(p.simH[int(n)*simWords] & 1)
}

// classKey canonicalizes a rebuild node's simulation signature: the phase
// is normalized out so a node and its complement land in the same class.
func (p *prover) classKey(n uint32) (signature, Lit) {
	phase := p.phase(n)
	var key signature
	copy(key[:], p.simH[int(n)*simWords:])
	if phase == 1 {
		for r := range key {
			key[r] = ^key[r]
		}
	}
	return key, phase
}

func (p *prover) enroll(n uint32) {
	key, _ := p.classKey(n)
	p.class[key] = append(p.class[key], n)
}

// maxBuddies bounds how many signature classmates one sweep attempt may try
// to prove against — a guard against pathological classes of simulation
// aliases.
const maxBuddies = 8

// findEqual looks for an older rebuild node provably equal (maybe up to
// complement) to n: same canonical signature, joint support within
// MaxSupport, equality confirmed by exhaustive enumeration.
func (p *prover) findEqual(n uint32) (uint32, Lit, bool) {
	if p.supBig[n] {
		return 0, 0, false
	}
	key, phase := p.classKey(n)
	buddies := p.class[key]
	if len(buddies) > maxBuddies {
		buddies = buddies[:maxBuddies]
	}
	for _, m := range buddies {
		if p.supBig[m] {
			continue
		}
		rel := phase ^ p.phase(m) // n == m ^ rel if equal at all
		sup := p.unionSupport(n, m)
		if sup == nil {
			continue
		}
		if p.exhaust(Lit(n<<1), Lit(m<<1)^rel, sup) == nil {
			return m, rel, true
		}
	}
	return 0, 0, false
}

// exhaust checks fa == fb over every assignment of the support variables.
// It returns nil when equal, or the first differing assignment as a full
// primary-input vector (inputs outside sup are 0; sup covers the structural
// support of both sides, so no cone reaches them).
func (p *prover) exhaust(fa, fb Lit, sup []int32) []bool {
	cone := p.coneAnds(fa.node(), fb.node())
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

// coneAnds returns the AND nodes of the rebuild cones of a and b in
// ascending node order, which is topological. The scratch slices grow with
// p.h; word[0], the constant, is never written and stays 0.
func (p *prover) coneAnds(a, b uint32) []uint32 {
	if grow := len(p.h.nodes) - len(p.mark); grow > 0 {
		p.mark = append(p.mark, make([]uint32, grow)...)
		p.word = append(p.word, make([]uint64, grow)...)
	}
	p.epoch++
	cone, stack := p.cone[:0], append(p.stack[:0], a, b)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &p.h.nodes[n]
		if nd.kind != kindAnd || p.mark[n] == p.epoch {
			continue
		}
		p.mark[n] = p.epoch
		cone = append(cone, n)
		stack = append(stack, nd.a.node(), nd.b.node())
	}
	slices.Sort(cone)
	p.cone, p.stack = cone, stack
	return cone
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

// table is the final decision procedure for one pair: exhaustive miter over
// the joint support when it fits MaxSupport, otherwise unproven.
func (p *prover) table(ra, rb Lit) PairVerdict {
	sup := p.unionSupport(ra.node(), rb.node())
	if sup == nil {
		return PairVerdict{Verdict: VerdictUnproven, Method: "unproven"}
	}
	p.tables++
	if ctr := p.exhaust(ra, rb, sup); ctr != nil {
		return PairVerdict{Verdict: VerdictRefuted, Method: "table", Counter: ctr}
	}
	return PairVerdict{Verdict: VerdictProven, Method: "table"}
}
