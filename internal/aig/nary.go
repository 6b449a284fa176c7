package aig

import "slices"

// Canonical n-ary fold constructors. AndN/OrN/XorN sort their operands by
// literal value before folding, so every permutation of the same operand
// multiset builds — and strash-shares — the exact same nodes. This is the
// property the translation validator leans on: the mapper reorders fold
// operands freely (merged scouting reads activate sorted row lists), and as
// long as both the lifted kernel and the symbolically executed program build
// their folds through these constructors, an op-for-op-faithful program
// proves equivalent by pure literal equality, with zero extra nodes.

// AndN returns the conjunction of lits (Const1 for an empty list), built in
// canonical sorted operand order.
func (g *Graph) AndN(lits []Lit) Lit {
	switch len(lits) {
	case 0:
		return Const1
	case 1:
		return lits[0]
	}
	return g.andSorted(append(make([]Lit, 0, len(lits)), lits...))
}

// andSorted sorts s in place and folds And over it.
func (g *Graph) andSorted(s []Lit) Lit {
	slices.Sort(s)
	v := s[0]
	for _, l := range s[1:] {
		v = g.And(v, l)
	}
	return v
}

// OrN returns the disjunction of lits (Const0 for an empty list), built in
// canonical sorted operand order.
func (g *Graph) OrN(lits []Lit) Lit {
	switch len(lits) {
	case 0:
		return Const0
	case 1:
		return lits[0]
	}
	s := make([]Lit, len(lits))
	for i, l := range lits {
		s[i] = l.Not()
	}
	return g.andSorted(s).Not()
}

// XorN returns the parity of lits (Const0 for an empty list). Operand
// complements are stripped into an overall parity bit first — x XOR ¬y is
// ¬(x XOR y) — so the fold runs over positive literals only, in canonical
// sorted order.
func (g *Graph) XorN(lits []Lit) Lit {
	parity := false
	s := make([]Lit, 0, len(lits))
	for _, l := range lits {
		if l.complement() {
			parity = !parity
			l = l.Not()
		}
		if l == Const0 {
			continue // XOR identity
		}
		s = append(s, l)
	}
	slices.Sort(s)
	// Adjacent duplicates cancel (x XOR x = 0); fold what survives.
	v := Const0
	for i := 0; i < len(s); i++ {
		if i+1 < len(s) && s[i+1] == s[i] {
			i++
			continue
		}
		v = g.Xor(v, s[i])
	}
	if parity {
		v = v.Not()
	}
	return v
}
