package verify

import (
	"errors"
	"strings"
	"testing"

	"sherlock/internal/aig"
	"sherlock/internal/dfg"
	"sherlock/internal/isa"
	"sherlock/internal/layout"
	"sherlock/internal/logic"
	"sherlock/internal/mapping"
	"sherlock/internal/sim/simref"
	"sherlock/internal/workloads/bitweaving"
	"sherlock/internal/workloads/sobel"
)

// outputsOf derives the readout contract of a finished mapping.
func outputsOf(t *testing.T, res *mapping.Result) []OutputAt {
	t.Helper()
	outs := res.Graph.Outputs()
	specs := make([]OutputAt, len(outs))
	for i, o := range outs {
		p, err := res.OutputPlace(o)
		if err != nil {
			t.Fatalf("OutputPlace: %v", err)
		}
		specs[i] = OutputAt{Name: res.Graph.OutputName(o), Place: p}
	}
	return specs
}

// testKernel exercises every lowering feature: multi-operand folds of all
// six sense ops, NOT, enough asymmetry that no two inputs are
// interchangeable, and four parallel same-shape XORs whose scouting reads
// the scheduler merges into one multi-column instruction.
func testKernel(t *testing.T) *dfg.Graph {
	t.Helper()
	b := dfg.NewBuilder()
	a, x, y, z := b.Input("a"), b.Input("x"), b.Input("y"), b.Input("z")
	w := b.Input("w")
	b.Output("o1", b.Or(b.And(a, x), b.Not(z)))
	b.Output("o2", b.Xor(b.XorN(a, y, z), b.Nand(x, w)))
	b.Output("o3", b.Nor(b.And(y, w), z))
	ps := b.Inputs("p", 4)
	qs := b.Inputs("q", 4)
	for i := 0; i < 4; i++ {
		b.Output("m"+string(rune('0'+i)), b.Xor(ps[i], qs[i]))
	}
	g := b.Graph()
	if err := g.Validate(); err != nil {
		t.Fatalf("kernel: %v", err)
	}
	return g
}

func mapKernel(t *testing.T, g *dfg.Graph, optimized bool, target layout.Target, mo mapping.Options) *mapping.Result {
	t.Helper()
	mo.Target = target
	var res *mapping.Result
	var err error
	if optimized {
		res, err = mapping.Optimized(g, mo)
	} else {
		res, err = mapping.Naive(g, mo)
	}
	if err != nil {
		t.Fatalf("mapping: %v", err)
	}
	return res
}

func TestEquivalentAcceptsMappedPrograms(t *testing.T) {
	sb, err := sobel.Build(sobel.Config{TileW: 1, TileH: 1, PixelBits: 4, Threshold: 5})
	if err != nil {
		t.Fatalf("sobel: %v", err)
	}
	bw, err := bitweaving.Build(bitweaving.Config{Bits: 4, Segments: 2})
	if err != nil {
		t.Fatalf("bitweaving: %v", err)
	}
	cases := []struct {
		name   string
		g      *dfg.Graph
		target layout.Target
	}{
		{"handmade", testKernel(t), layout.Target{Arrays: 1, Rows: 64, Cols: 64}},
		{"sobel", sb, layout.Target{Arrays: 1, Rows: 128, Cols: 128}},
		{"bitweaving", bw, layout.Target{Arrays: 2, Rows: 64, Cols: 64}},
	}
	for _, tc := range cases {
		for _, optimized := range []bool{false, true} {
			res := mapKernel(t, tc.g, optimized, tc.target, mapping.Options{})
			outs := outputsOf(t, res)
			rep, err := EquivalentOpts(res.Program, tc.target, tc.g, outs, EquivOptions{})
			if err != nil {
				t.Fatalf("%s optimized=%v: %v", tc.name, optimized, err)
			}
			if !rep.AllProven() {
				t.Fatalf("%s optimized=%v: not all outputs proven: %+v", tc.name, optimized, rep.Outputs)
			}
			if err := rep.Err(); err != nil {
				t.Fatalf("%s optimized=%v: report error: %v", tc.name, optimized, err)
			}
			if rep.Nodes == 0 {
				t.Fatalf("%s optimized=%v: empty shared AIG", tc.name, optimized)
			}
		}
	}
}

// A faithful program must prove by literal equality alone — the O(instrs)
// fast path the canonical folds buy.
func TestEquivalentFaithfulProgramsProveByStrash(t *testing.T) {
	g := testKernel(t)
	target := layout.Target{Arrays: 1, Rows: 64, Cols: 64}
	res := mapKernel(t, g, true, target, mapping.Options{})
	rep, err := EquivalentOpts(res.Program, target, g, outputsOf(t, res), EquivOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range rep.Outputs {
		if o.Method != "strash" {
			t.Fatalf("output %q proved via %s, want strash (canonical-fold fast path)", o.Name, o.Method)
		}
	}
}

func clone(p isa.Program) isa.Program {
	q := make(isa.Program, len(p))
	for i, in := range p {
		q[i] = in
		q[i].Cols = append([]int(nil), in.Cols...)
		q[i].Rows = append([]int(nil), in.Rows...)
		q[i].Ops = append([]logic.Op(nil), in.Ops...)
		q[i].Bindings = append([]string(nil), in.Bindings...)
	}
	return q
}

// independentWrites finds two adjacent host writes touching disjoint cells
// (such writes always commute — both load fresh values from the host).
func independentWrites(p isa.Program) int {
	for i := 0; i+1 < len(p); i++ {
		a, b := p[i], p[i+1]
		if a.Kind != isa.KindWrite || b.Kind != isa.KindWrite || !a.IsHostWrite() || !b.IsHostWrite() {
			continue
		}
		if a.Array != b.Array || a.Rows[0] != b.Rows[0] {
			return i
		}
		disjoint := true
		for _, ca := range a.Cols {
			for _, cb := range b.Cols {
				if ca == cb {
					disjoint = false
				}
			}
		}
		if disjoint {
			return i
		}
	}
	return -1
}

func findInstr(p isa.Program, pred func(isa.Instruction) bool) int {
	for i, in := range p {
		if pred(in) {
			return i
		}
	}
	return -1
}

// TestEquivalentMutations is the mutation-rejection suite: eight program
// corruptions, one semantics-preserving (accepted), seven
// function-changing (every one rejected). Mirrors the dynamic 600-mutant
// fuzz of internal/sim, but with a static proof instead of execution.
func TestEquivalentMutations(t *testing.T) {
	type ctx struct {
		g      *dfg.Graph
		target layout.Target
		base   isa.Program
		outs   []OutputAt
	}
	g := testKernel(t)
	target := layout.Target{Arrays: 1, Rows: 64, Cols: 64}
	res := mapKernel(t, g, true, target, mapping.Options{})
	hand := ctx{g: g, target: target, base: res.Program, outs: outputsOf(t, res)}

	// The handmade kernel maps without column-alignment shifts; the shift
	// mutation corrupts a sobel tile instead.
	sg, err := sobel.Build(sobel.Config{TileW: 1, TileH: 1, PixelBits: 4, Threshold: 5})
	if err != nil {
		t.Fatalf("sobel: %v", err)
	}
	starget := layout.Target{Arrays: 1, Rows: 128, Cols: 128}
	sres := mapKernel(t, sg, true, starget, mapping.Options{})
	sob := ctx{g: sg, target: starget, base: sres.Program, outs: outputsOf(t, sres)}

	for _, c := range []ctx{hand, sob} {
		if err := Equivalent(c.base, c.target, c.g, c.outs); err != nil {
			t.Fatalf("unmutated program must prove: %v", err)
		}
	}

	mismatches := 0
	checkIn := func(name string, c ctx, mutate func(isa.Program) isa.Program, wantReject bool) {
		t.Helper()
		p := mutate(clone(c.base))
		err := Equivalent(p, c.target, c.g, c.outs)
		if wantReject && err == nil {
			t.Fatalf("%s: function-changing mutation accepted", name)
		}
		if !wantReject && err != nil {
			t.Fatalf("%s: semantics-preserving mutation rejected: %v", name, err)
		}
		var me *MismatchError
		if errors.As(err, &me) {
			mismatches++
			m := me.Mismatch
			// The counterexample must be real: the kernel and the mutated
			// program, both evaluated at the assignment, must reproduce
			// Want and Got.
			kout, kerr := dfg.EvaluateByName(c.g, m.Assignment)
			if kerr != nil {
				t.Fatalf("%s: kernel eval at counterexample: %v", name, kerr)
			}
			if kout[m.Output] != m.Want {
				t.Fatalf("%s: kernel computes %v at the counterexample, report claims %v", name, kout[m.Output], m.Want)
			}
			machine := simref.NewMachine(c.target)
			if rerr := machine.Run(p, m.Assignment); rerr != nil {
				t.Fatalf("%s: mutated program does not execute at the counterexample: %v", name, rerr)
			}
			var place layout.Place
			for _, o := range c.outs {
				if o.Name == m.Output {
					place = o.Place
				}
			}
			got, ok := machine.Cell(place)
			if !ok {
				t.Fatalf("%s: readout cell %v undefined after execution", name, place)
			}
			if got != m.Got {
				t.Fatalf("%s: mutated program computes %v at the counterexample, report claims %v", name, got, m.Got)
			}
		}
	}

	// 1. Swapping adjacent independent instructions preserves the function.
	checkIn("swap-independent", hand, func(p isa.Program) isa.Program {
		i := independentWrites(p)
		if i < 0 {
			t.Fatal("no adjacent independent host writes to swap")
		}
		p[i], p[i+1] = p[i+1], p[i]
		return p
	}, false)

	// 2. Dropping a member from a merged scouting read loses one column's
	// fold.
	checkIn("drop-merge-member", hand, func(p isa.Program) isa.Program {
		i := findInstr(p, func(in isa.Instruction) bool {
			return in.IsCIMRead() && len(in.Cols) > 1
		})
		if i < 0 {
			t.Fatal("no merged CIM read to corrupt")
		}
		p[i].Cols = p[i].Cols[:len(p[i].Cols)-1]
		p[i].Ops = p[i].Ops[:len(p[i].Ops)-1]
		return p
	}, true)

	// 3. Retargeting a write-back row parks the value in the wrong cell.
	checkIn("retarget-row", hand, func(p isa.Program) isa.Program {
		i := findInstr(p, func(in isa.Instruction) bool {
			return in.Kind == isa.KindWrite && !in.IsHostWrite()
		})
		if i < 0 {
			t.Fatal("no write-back to retarget")
		}
		p[i].Rows[0] = (p[i].Rows[0] + 1) % target.Rows
		return p
	}, true)

	// 4. Flipping a fold op inverts (or replaces) the sensed function.
	checkIn("flip-fold-op", hand, func(p isa.Program) isa.Program {
		i := findInstr(p, func(in isa.Instruction) bool { return in.IsCIMRead() })
		if i < 0 {
			t.Fatal("no CIM read to corrupt")
		}
		flip := map[logic.Op]logic.Op{
			logic.And: logic.Or, logic.Or: logic.And,
			logic.Nand: logic.Nor, logic.Nor: logic.Nand,
			logic.Xor: logic.Xnor, logic.Xnor: logic.Xor,
		}
		p[i].Ops[0] = flip[p[i].Ops[0]]
		return p
	}, true)

	// 5. Truncating the program loses the tail of the computation.
	checkIn("truncate", hand, func(p isa.Program) isa.Program {
		return p[:len(p)-1]
	}, true)

	// 6. Dropping a NOT leaves the uninverted value in the buffer.
	checkIn("drop-not", hand, func(p isa.Program) isa.Program {
		i := findInstr(p, func(in isa.Instruction) bool { return in.Kind == isa.KindNot })
		if i < 0 {
			t.Fatal("no NOT to drop")
		}
		return append(p[:i], p[i+1:]...)
	}, true)

	// 7. Flipping a shift's direction lands every bit in the wrong column.
	checkIn("flip-shift", sob, func(p isa.Program) isa.Program {
		i := findInstr(p, func(in isa.Instruction) bool { return in.Kind == isa.KindShift })
		if i < 0 {
			t.Fatal("no shift to flip")
		}
		p[i].Right = !p[i].Right
		return p
	}, true)

	// 8. Rebinding a host write loads the wrong kernel input.
	checkIn("rebind-input", hand, func(p isa.Program) isa.Program {
		i := findInstr(p, func(in isa.Instruction) bool {
			return in.IsHostWrite() && in.Bindings[0] != "a"
		})
		if i < 0 {
			t.Fatal("no host write to rebind")
		}
		p[i].Bindings[0] = "a"
		return p
	}, true)

	if mismatches == 0 {
		t.Fatal("no mutation produced a concrete counterexample (MismatchError)")
	}
}

// Equivalence against a functionally equal but structurally different
// kernel must still prove when the joint support is small, and degrade to
// unproven — never to a false verdict — once it is one input beyond the
// exhaustive bound.
func TestEquivalentStructurallyDifferentKernel(t *testing.T) {
	// build returns a·(b1+…+bn) or its distributed form a·b1+…+a·bn.
	build := func(n int, distributed bool) *dfg.Graph {
		b := dfg.NewBuilder()
		a, bs := b.Input("a"), b.Inputs("b", n)
		if distributed {
			terms := make([]dfg.Val, n)
			for i, bi := range bs {
				terms[i] = b.And(a, bi)
			}
			b.Output("o", b.OrN(terms...))
		} else {
			b.Output("o", b.And(a, b.OrN(bs...)))
		}
		return b.Graph()
	}
	target := layout.Target{Arrays: 1, Rows: 64, Cols: 64}
	check := func(n int) *EquivReport {
		t.Helper()
		res := mapKernel(t, build(n, true), true, target, mapping.Options{})
		rep, err := EquivalentOpts(res.Program, target, build(n, false), outputsOf(t, res), EquivOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// Three inputs: the table proves distribution.
	if rep := check(2); !rep.AllProven() || rep.Outputs[0].Method != "table" {
		t.Fatalf("distributed program vs factored kernel not proven by table: %+v", rep.Outputs)
	}

	// Seventeen inputs: unproven, surfaced as *UnprovenError.
	var ue *UnprovenError
	if verr := check(16).Err(); !errors.As(verr, &ue) {
		t.Fatalf("17-input support: want *UnprovenError, got %v", verr)
	}
	if ue.Output != "o" {
		t.Fatalf("unproven output %q, want o", ue.Output)
	}
}

func TestEquivalentInterfaceErrors(t *testing.T) {
	g := testKernel(t)
	target := layout.Target{Arrays: 1, Rows: 64, Cols: 64}
	res := mapKernel(t, g, true, target, mapping.Options{})
	outs := outputsOf(t, res)

	if _, err := EquivalentOpts(res.Program, target, g, outs[:1], EquivOptions{}); err == nil ||
		!strings.Contains(err.Error(), "no readout cell") {
		t.Fatalf("missing outputs not rejected: %v", err)
	}
	bad := append([]OutputAt(nil), outs...)
	bad[0].Name = "nonsense"
	if _, err := EquivalentOpts(res.Program, target, g, bad, EquivOptions{}); err == nil ||
		!strings.Contains(err.Error(), "not a kernel output") {
		t.Fatalf("unknown output not rejected: %v", err)
	}
	dup := append(append([]OutputAt(nil), outs...), outs[0])
	if _, err := EquivalentOpts(res.Program, target, g, dup, EquivOptions{}); err == nil ||
		!strings.Contains(err.Error(), "duplicate readout") {
		t.Fatalf("duplicate readout not rejected: %v", err)
	}
	if _, err := EquivalentOpts(isa.Program{}, target, g, outs, EquivOptions{}); err == nil {
		t.Fatal("empty program must fail (undefined readouts)")
	}
}

// TestEquivalentStrictErrorWinsOverBinding pins the error precedence of the
// single strict walk: a strict-mode error anywhere in the program is
// reported ahead of an earlier host binding that names no kernel input,
// with the verifier's exact text; the binding error surfaces only when the
// program is otherwise strict-clean.
func TestEquivalentStrictErrorWinsOverBinding(t *testing.T) {
	g := testKernel(t)
	target := layout.Target{Arrays: 1, Rows: 64, Cols: 64}
	res := mapKernel(t, g, true, target, mapping.Options{})
	outs := outputsOf(t, res)

	rebound := clone(res.Program)
	i := findInstr(rebound, func(in isa.Instruction) bool { return in.IsHostWrite() })
	if i < 0 {
		t.Fatal("no host write to rebind")
	}
	rebound[i].Bindings[0] = "stranger"
	_, err := EquivalentOpts(rebound, target, g, outs, EquivOptions{})
	if err == nil || !strings.Contains(err.Error(), `binds "stranger", which is not a kernel input`) {
		t.Fatalf("binding error: got %v", err)
	}

	// A later read of a never-written cell is a strict error and must win.
	broken := append(clone(rebound), isa.Instruction{
		Kind: isa.KindRead, Array: 0, Cols: []int{target.Cols - 1}, Rows: []int{target.Rows - 1},
	})
	strict := Program(broken, target).Err()
	if strict == nil {
		t.Fatal("verifier accepted a read of an undefined cell")
	}
	_, err = EquivalentOpts(broken, target, g, outs, EquivOptions{})
	want := "verify: program rejected before equivalence checking: " + strict.Error()
	if err == nil || err.Error() != want {
		t.Fatalf("got %v\nwant %s", err, want)
	}
}

// TestEquivalentStrictErrorWinsOverLift pins the same precedence for a
// kernel the prover cannot lift: the program's strict error is reported,
// and the lift error only for a strict-clean program.
func TestEquivalentStrictErrorWinsOverLift(t *testing.T) {
	g := testKernel(t)
	target := layout.Target{Arrays: 1, Rows: 64, Cols: 64}
	res := mapKernel(t, g, true, target, mapping.Options{})
	outs := outputsOf(t, res)
	defer func(lift func(*dfg.Graph) (*aig.Cone, error)) { liftDFG = lift }(liftDFG)
	liftDFG = func(*dfg.Graph) (*aig.Cone, error) { return nil, errors.New("unliftable") }

	_, err := EquivalentOpts(res.Program, target, g, outs, EquivOptions{})
	if err == nil || err.Error() != "verify: kernel is outside the liftable op set: unliftable" {
		t.Fatalf("lift error: got %v", err)
	}

	broken := append(clone(res.Program), isa.Instruction{
		Kind: isa.KindRead, Array: 0, Cols: []int{target.Cols - 1}, Rows: []int{target.Rows - 1},
	})
	strict := Program(broken, target).Err()
	if strict == nil {
		t.Fatal("verifier accepted a read of an undefined cell")
	}
	_, err = EquivalentOpts(broken, target, g, outs, EquivOptions{})
	want := "verify: program rejected before equivalence checking: " + strict.Error()
	if err == nil || err.Error() != want {
		t.Fatalf("got %v\nwant %s", err, want)
	}
}

func TestOutputsManifestRoundTrip(t *testing.T) {
	outs := []OutputAt{
		{Name: "gt", Place: layout.Place{Array: 0, Col: 3, Row: 17}},
		{Name: "sum_b0", Place: layout.Place{Array: 2, Col: 0, Row: 511}},
	}
	text := FormatOutputs(outs)
	back, err := ParseOutputs(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(outs) {
		t.Fatalf("round trip lost entries: %d -> %d", len(outs), len(back))
	}
	for i := range outs {
		if back[i] != outs[i] {
			t.Fatalf("entry %d: %+v != %+v", i, back[i], outs[i])
		}
	}
	for _, bad := range []string{"", "# only comments\n", "output x\n", "output x [1][2]\n", "readout x [1][2][3]\n"} {
		if _, err := ParseOutputs(bad); err == nil {
			t.Fatalf("malformed manifest %q parsed", bad)
		}
	}
}

func TestMismatchRendering(t *testing.T) {
	m := Mismatch{
		Output:     "gt",
		Assignment: map[string]bool{"b": true, "a": false, "c": true},
		Want:       true,
		Got:        false,
	}
	if got, want := m.AssignmentString(0), "a=0 b=1 c=1"; got != want {
		t.Fatalf("AssignmentString = %q, want %q", got, want)
	}
	if got, want := m.AssignmentString(2), "a=0 b=1 … (+1 more)"; got != want {
		t.Fatalf("truncated AssignmentString = %q, want %q", got, want)
	}
	err := &MismatchError{Mismatch: m}
	msg := err.Error()
	for _, frag := range []string{`output "gt"`, "computes 0", "kernel computes 1", "a=0 b=1 c=1"} {
		if !strings.Contains(msg, frag) {
			t.Fatalf("MismatchError %q missing %q", msg, frag)
		}
	}
	if ue := (&UnprovenError{Output: "x"}).Error(); !strings.Contains(ue, `"x"`) || !strings.Contains(ue, "unproven") {
		t.Fatalf("UnprovenError rendering: %q", ue)
	}
}

// Concurrent verifications over independently mapped programs must be
// data-race free (CI runs this under -race).
func TestEquivRaceSmoke(t *testing.T) {
	g := testKernel(t)
	target := layout.Target{Arrays: 1, Rows: 64, Cols: 64}
	type job struct {
		p    isa.Program
		outs []OutputAt
	}
	jobs := make([]job, 2)
	for k := range jobs {
		res := mapKernel(t, g, k == 0, target, mapping.Options{})
		jobs[k] = job{p: res.Program, outs: outputsOf(t, res)}
	}
	done := make(chan error, len(jobs))
	for _, j := range jobs {
		go func(j job) {
			done <- Equivalent(j.p, target, g, j.outs)
		}(j)
	}
	for range jobs {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
