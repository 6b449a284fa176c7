package aig

import (
	"math/rand"
	"testing"

	"sherlock/internal/workloads/sobel"
)

func TestNaryCanonicalOrder(t *testing.T) {
	g := New(4)
	a, b, c, d := g.Input(0), g.Input(1), g.Input(2), g.Input(3)
	perm1 := g.AndN([]Lit{a, b, c, d})
	perm2 := g.AndN([]Lit{d, b.Not(), a, c})
	perm3 := g.AndN([]Lit{c, d, a, b})
	if perm1 != perm3 {
		t.Fatalf("AndN not order-invariant: %v vs %v", perm1, perm3)
	}
	if perm1 == perm2 {
		t.Fatalf("AndN merged different operand sets")
	}
	if x, y := g.OrN([]Lit{a, b, c}), g.OrN([]Lit{c, a, b}); x != y {
		t.Fatalf("OrN not order-invariant: %v vs %v", x, y)
	}
	if x, y := g.XorN([]Lit{a, b.Not(), c}), g.XorN([]Lit{c.Not(), b, a}); x != y {
		t.Fatalf("XorN complement stripping not canonical: %v vs %v", x, y)
	}
	if got := g.XorN([]Lit{a, b, a}); got != g.XorN([]Lit{b}) {
		t.Fatalf("XorN duplicate cancellation: got %v want %v", got, b)
	}
	if g.AndN(nil) != Const1 || g.OrN(nil) != Const0 || g.XorN(nil) != Const0 {
		t.Fatalf("empty folds not neutral elements")
	}
}

func TestCheckOutputsStrash(t *testing.T) {
	g := New(3)
	x := g.AndN([]Lit{g.Input(0), g.Input(1), g.Input(2)})
	y := g.AndN([]Lit{g.Input(2), g.Input(0), g.Input(1)})
	vs, _ := CheckOutputs(g, []Lit{x}, []Lit{y})
	if vs[0].Verdict != VerdictProven || vs[0].Method != "strash" {
		t.Fatalf("canonical folds should prove by strash, got %+v", vs[0])
	}
}

// Skewed vs balanced association of one chain must prove via the normalized
// rebuild — the shape Balance candidates take.
func TestCheckOutputsRebuildReassociation(t *testing.T) {
	const n = 12
	g := New(n)
	skewAnd, skewXor := g.Input(0), g.Input(0)
	for i := 1; i < n; i++ {
		skewAnd = g.And(skewAnd, g.Input(i))
		skewXor = g.Xor(skewXor, g.Input(i))
	}
	var tree func(lo, hi int, op func(Lit, Lit) Lit) Lit
	tree = func(lo, hi int, op func(Lit, Lit) Lit) Lit {
		if hi-lo == 1 {
			return g.Input(lo)
		}
		mid := (lo + hi) / 2
		return op(tree(lo, mid, op), tree(mid, hi, op))
	}
	balAnd := tree(0, n, g.And)
	balXor := tree(0, n, g.Xor)
	vs, st := CheckOutputs(g, []Lit{skewAnd, skewXor}, []Lit{balAnd, balXor})
	for i, v := range vs {
		if v.Verdict != VerdictProven {
			t.Fatalf("pair %d: %v via %s, want proven", i, v.Verdict, v.Method)
		}
		if v.Method != "rebuild" {
			t.Fatalf("pair %d proved via %s, want rebuild", i, v.Method)
		}
	}
	if st.RebuiltNodes == 0 {
		t.Fatalf("rebuild ran but reported no nodes")
	}
}

// Distribution a·(b+c) = a·b + a·c is not an AC reassociation, so the
// rebuild leaves the roots distinct; the table proves them equal over their
// three-input joint support.
func TestCheckOutputsTableDistribution(t *testing.T) {
	g := New(3)
	a, b, c := g.Input(0), g.Input(1), g.Input(2)
	f1 := g.And(a, g.Or(b, c))
	f2 := g.Or(g.And(a, b), g.And(a, c))
	vs, st := CheckOutputs(g, []Lit{f1}, []Lit{f2})
	if vs[0].Verdict != VerdictProven || vs[0].Method != "table" {
		t.Fatalf("distribution not proven by table: %+v", vs[0])
	}
	if st.TableProofs != 1 {
		t.Fatalf("table proofs = %d, want 1", st.TableProofs)
	}
}

func TestCheckOutputsCosimRefutes(t *testing.T) {
	g := New(4)
	a, b := g.Input(0), g.Input(1)
	f1 := g.And(a, b)
	f2 := g.Or(a, b)
	vs, _ := CheckOutputs(g, []Lit{f1}, []Lit{f2})
	v := vs[0]
	if v.Verdict != VerdictRefuted || v.Method != "cosim" {
		t.Fatalf("AND vs OR not cosim-refuted: %+v", v)
	}
	if len(v.Counter) != g.NumInputs() {
		t.Fatalf("counterexample covers %d of %d inputs", len(v.Counter), g.NumInputs())
	}
	if g.Eval(f1, v.Counter) == g.Eval(f2, v.Counter) {
		t.Fatalf("counterexample %v does not separate the functions", v.Counter)
	}
}

// A wide AND vs constant false agrees on (almost) every random vector; only
// the exhaustive table stage can find the single separating assignment.
func TestCheckOutputsTableRefutes(t *testing.T) {
	const n = 14
	g := New(n)
	all := make([]Lit, n)
	for i := range all {
		all[i] = g.Input(i)
	}
	wide := g.AndN(all)
	vs, st := CheckOutputs(g, []Lit{wide}, []Lit{Const0})
	v := vs[0]
	if v.Verdict != VerdictRefuted {
		t.Fatalf("wide AND vs const not refuted: %+v", v)
	}
	if v.Method != "table" {
		t.Fatalf("refuted via %s, want table", v.Method)
	}
	if st.TableProofs == 0 {
		t.Fatalf("table stage reported no work")
	}
	if !g.Eval(wide, v.Counter) {
		t.Fatalf("counterexample %v does not set the wide AND", v.Counter)
	}
}

// a·(b1+…+b16) and a·b1+…+a·b16 are equal, but their joint support is one
// input beyond the table's bound.
func TestCheckOutputsUnprovenWithinBudget(t *testing.T) {
	g := New(17)
	a := g.Input(0)
	bs := make([]Lit, 16)
	terms := make([]Lit, 16)
	for i := range bs {
		bs[i] = g.Input(1 + i)
		terms[i] = g.And(a, bs[i])
	}
	f1, f2 := g.And(a, g.OrN(bs)), g.OrN(terms)
	vs, st := CheckOutputs(g, []Lit{f1}, []Lit{f2})
	if vs[0].Verdict != VerdictUnproven || vs[0].Method != "unproven" {
		t.Fatalf("17-input distribution should be unproven, got %+v", vs[0])
	}
	if st.TableProofs != 0 {
		t.Fatalf("table ran %d times past the support bound", st.TableProofs)
	}
}

// graft recreates src's cones node for node inside dst (raw ANDs, no
// canonical reordering), so structurally transformed nets can be compared
// against their originals in one shared graph.
func graft(dst, src *Graph, outs []Lit) []Lit {
	lits := make([]Lit, len(src.nodes))
	lits[0] = Const0
	for i := 1; i <= src.nInputs; i++ {
		lits[i] = dst.Input(i - 1)
	}
	for i := 1 + src.nInputs; i < len(src.nodes); i++ {
		nd := src.nodes[i]
		if nd.kind != kindAnd {
			continue
		}
		a := lits[nd.a.node()] ^ Lit(nd.a&1)
		b := lits[nd.b.node()] ^ Lit(nd.b&1)
		lits[i] = dst.And(a, b)
	}
	res := make([]Lit, len(outs))
	for i, o := range outs {
		res[i] = lits[o.node()] ^ Lit(o&1)
	}
	return res
}

// resynthPasses are the resynthesis passes whose candidates the coopt gate
// discharges through CheckOutputs.
var resynthPasses = []struct {
	name  string
	apply func(*Graph, []Lit) (*Graph, []Lit)
}{
	{"balance", func(g *Graph, outs []Lit) (*Graph, []Lit) { return Balance(g, outs) }},
	{"rewrite", func(g *Graph, outs []Lit) (*Graph, []Lit) {
		g2, o2, _ := Rewrite(g, outs)
		return g2, o2
	}},
	{"refactor", func(g *Graph, outs []Lit) (*Graph, []Lit) {
		g2, o2, _ := Refactor(g, outs)
		return g2, o2
	}},
}

// The prover must accept every shape the resynthesis passes generate — the
// exact candidates the coopt gate now discharges statically.
func TestCheckOutputsProvesResynthesisShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		n := 4 + rng.Intn(4)
		g := New(n)
		lits := make([]Lit, 0, 40)
		for i := 0; i < n; i++ {
			lits = append(lits, g.Input(i))
		}
		for i := 0; i < 24; i++ {
			a := lits[rng.Intn(len(lits))] ^ Lit(rng.Intn(2))
			b := lits[rng.Intn(len(lits))] ^ Lit(rng.Intn(2))
			if v := g.And(a, b); !v.IsConst() {
				lits = append(lits, v)
			}
		}
		outs := []Lit{lits[len(lits)-1], lits[len(lits)-2] ^ 1, lits[len(lits)-3]}
		for _, pass := range resynthPasses {
			g2, outs2 := pass.apply(g, outs)
			grafted := graft(g, g2, outs2)
			vs, _ := CheckOutputs(g, outs, grafted)
			for i, v := range vs {
				if v.Verdict != VerdictProven {
					t.Fatalf("trial %d pass %s output %d: %v via %s, want proven",
						trial, pass.name, i, v.Verdict, v.Method)
				}
			}
		}
	}
}

// TestCheckOutputsPinsResynthCandidates pins the prover's decisions on the
// quick-scale Sobel tile: each resynthesis candidate, grafted next to the
// lifted kernel, must settle by the same methods with the same work stats.
// A change to the prover's internals that moves any of these numbers
// changes which candidates the coopt gate proves and which it backstops.
func TestCheckOutputsPinsResynthCandidates(t *testing.T) {
	kernel, err := sobel.Build(sobel.Config{TileW: 2, TileH: 2, PixelBits: 8, Threshold: 128})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		stats  EquivStats
		method string
	}{
		"balance":  {EquivStats{RebuiltNodes: 6150}, "rebuild"},
		"rewrite":  {EquivStats{RebuiltNodes: 7558}, "unproven"},
		"refactor": {EquivStats{RebuiltNodes: 6270}, "unproven"},
	}
	for _, pass := range resynthPasses {
		c, err := LiftDFG(kernel)
		if err != nil {
			t.Fatal(err)
		}
		g2, outs2 := pass.apply(c.G, c.Outs)
		vs, st := CheckOutputs(c.G, c.Outs, graft(c.G, g2, outs2))
		w := want[pass.name]
		if st != w.stats {
			t.Errorf("%s: stats %+v, want %+v", pass.name, st, w.stats)
		}
		if len(vs) != 4 {
			t.Fatalf("%s: %d verdicts, want 4", pass.name, len(vs))
		}
		for i, v := range vs {
			if v.Method != w.method {
				t.Errorf("%s output %d: %v via %s, want via %s", pass.name, i, v.Verdict, v.Method, w.method)
			}
		}
	}
}
