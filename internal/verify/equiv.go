// Translation validation: prove, per compile, that an emitted isa.Program
// computes the same Boolean function as the kernel DFG it was scheduled
// from. The proof is a symbolic execution of the program over the domain of
// AIG literals — a visitor on the same strict walk (isa.Walker) that
// verify.Program and sim.Predecode run, with every cell and row-buffer bit
// carrying the literal of the Boolean function it holds alongside its
// defined bit:
//
//   - a host write binds the cell to the kernel input's literal;
//   - a scouting read folds the activated rows' literals through the
//     canonical And/Or/Xor constructors (inverted senses complement);
//   - copies, cross-array writes and shifts relabel literals (shifted-in
//     bits become undefined again);
//   - NOT complements in place;
//   - the readout cell of each kernel output yields the program-side
//     literal.
//
// Both the program and aig.LiftDFG of the kernel build into one shared
// graph, so a faithful compile discharges by literal equality (the mapper
// reorders fold operands, which the canonical sorted folds absorb); anything
// structurally deeper falls to aig.CheckOutputs' cosimulation, normalized
// rebuild and exhaustive-table stages. A refutation carries a concrete
// counterexample assignment; an unproven verdict is never accepted silently.

package verify

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sherlock/internal/aig"
	"sherlock/internal/dfg"
	"sherlock/internal/isa"
	"sherlock/internal/layout"
	"sherlock/internal/logic"
)

// OutputAt names one kernel output and the cell its final value is read
// from — the readout contract a program does not carry on its own. The
// facade derives these from mapping.Result; golden programs keep them in
// sidecar ".outputs" manifests (see FormatOutputs/ParseOutputs).
type OutputAt struct {
	Name  string
	Place layout.Place
}

// EquivOptions is fieldless: the prover's budgets are fixed constants in
// internal/aig. The type stays because callers outside this module name it.
type EquivOptions struct{}

// Mismatch is a concrete refutation of program/kernel equivalence: an input
// assignment on which one output differs.
type Mismatch struct {
	Output     string
	Assignment map[string]bool // full kernel-input assignment
	Want       bool            // kernel value at the assignment
	Got        bool            // program value at the assignment
}

// AssignmentString renders the assignment sorted by input name, "a=1 b=0
// ...", truncated after max entries (0 = everything).
func (m *Mismatch) AssignmentString(max int) string {
	names := make([]string, 0, len(m.Assignment))
	for name := range m.Assignment { //sherlock:allow rangemap (sorted below)
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for i, name := range names {
		if max > 0 && i == max {
			fmt.Fprintf(&sb, " … (+%d more)", len(names)-max)
			break
		}
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(name)
		sb.WriteByte('=')
		sb.WriteByte('0' + b2u(m.Assignment[name]))
	}
	return sb.String()
}

func b2u(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// MismatchError is the error form of a refuted equivalence check.
type MismatchError struct {
	Mismatch Mismatch
}

func (e *MismatchError) Error() string {
	m := &e.Mismatch
	return fmt.Sprintf("verify: program is not equivalent to its kernel: output %q computes %d, kernel computes %d under %s",
		m.Output, b2u(m.Got), b2u(m.Want), m.AssignmentString(16))
}

// UnprovenError reports an output whose equivalence could not be decided
// within the static budget — not a refutation, but never a pass either.
type UnprovenError struct {
	Output string
}

func (e *UnprovenError) Error() string {
	return fmt.Sprintf("verify: equivalence of output %q is unproven within the static budget (joint support exceeds the exhaustive bound); fall back to dynamic checking",
		e.Output)
}

// OutputEquiv is the per-output result of an equivalence check.
type OutputEquiv struct {
	Name    string
	Verdict aig.Verdict
	Method  string    // deciding procedure: strash, cosim, rebuild, table, unproven
	Counter *Mismatch // non-nil exactly when Verdict == VerdictRefuted
}

// EquivReport is the result of one translation-validation run.
type EquivReport struct {
	Outputs []OutputEquiv
	// Nodes is the AND count of the shared AIG holding both the lifted
	// kernel and the symbolically executed program — O(program instructions
	// + kernel ops) for a faithful compile.
	Nodes int
	// Stats reports the prover's rebuild and table work.
	Stats aig.EquivStats
}

// AllProven reports whether every output discharged as proven.
func (r *EquivReport) AllProven() bool {
	for _, o := range r.Outputs {
		if o.Verdict != aig.VerdictProven {
			return false
		}
	}
	return true
}

// AnyRefuted reports whether some output was disproved outright — as
// opposed to merely left unproven by an exhausted budget.
func (r *EquivReport) AnyRefuted() bool {
	for _, o := range r.Outputs {
		if o.Verdict == aig.VerdictRefuted {
			return true
		}
	}
	return false
}

// Err returns nil when every output proved; otherwise the first refutation
// (*MismatchError) if any exists, else the first unproven (*UnprovenError).
func (r *EquivReport) Err() error {
	var unproven error
	for _, o := range r.Outputs {
		switch o.Verdict {
		case aig.VerdictRefuted:
			return &MismatchError{Mismatch: *o.Counter}
		case aig.VerdictUnproven:
			if unproven == nil {
				unproven = &UnprovenError{Output: o.Name}
			}
		}
	}
	return unproven
}

// Equivalent proves that program p, run on fabric t with the readout
// contract outs, computes kernel. It returns nil exactly when every output
// is statically proven equivalent; a refutation surfaces as *MismatchError
// with a concrete counterexample, an exhausted budget as *UnprovenError, and
// structural problems (invalid program, interface mismatch) as plain errors.
func Equivalent(p isa.Program, t layout.Target, kernel *dfg.Graph, outs []OutputAt) error {
	rep, err := EquivalentOpts(p, t, kernel, outs, EquivOptions{})
	if err != nil {
		return err
	}
	return rep.Err()
}

// liftDFG is the kernel lift; tests swap in a failing one, since no graph
// the dfg API builds falls outside the liftable op set.
var liftDFG = aig.LiftDFG

// EquivalentOpts runs the equivalence check and returns the full per-output
// report. The error return covers structural failures only; consult
// EquivReport.Err for the verdicts. A strict error in the program is
// reported ahead of a kernel the prover cannot lift.
func EquivalentOpts(p isa.Program, t layout.Target, kernel *dfg.Graph, outs []OutputAt, _ EquivOptions) (*EquivReport, error) {
	w, err := isa.NewWalker(p, t)
	if err != nil {
		return nil, fmt.Errorf("verify: program rejected before equivalence checking: %w", err)
	}
	cone, liftErr := liftDFG(kernel)
	if liftErr != nil {
		cone = &aig.Cone{G: aig.New(0)} // walk anyway; every literal stays constant
	}
	inIdx := make(map[string]int, len(cone.InputNames))
	for i, name := range cone.InputNames {
		inIdx[name] = i
	}

	// One strict walk does both jobs: bounds, structural invariants and
	// def-before-use must hold before literals mean anything, so the first
	// strict fault stops the proof. A kernel the prover cannot lift, and
	// then a binding outside the kernel's inputs, are only reported once
	// the whole program walked strict-clean.
	ex := newSymExec(w, cone.G, inIdx)
	if err := w.Run(ex); err != nil {
		return nil, fmt.Errorf("verify: program rejected before equivalence checking: %w", err)
	}
	if liftErr != nil {
		return nil, fmt.Errorf("verify: kernel is outside the liftable op set: %w", liftErr)
	}
	if ex.bindErr != nil {
		return nil, ex.bindErr
	}

	kernLit := make(map[string]aig.Lit, len(cone.Outs))
	for i, name := range cone.OutputNames {
		kernLit[name] = cone.Outs[i]
	}
	progLits := make([]aig.Lit, 0, len(outs))
	kernLits := make([]aig.Lit, 0, len(outs))
	names := make([]string, 0, len(outs))
	seen := make(map[string]bool, len(outs))
	for _, o := range outs {
		want, ok := kernLit[o.Name]
		if !ok {
			return nil, fmt.Errorf("verify: readout names %q, which is not a kernel output", o.Name)
		}
		if seen[o.Name] {
			return nil, fmt.Errorf("verify: duplicate readout for output %q", o.Name)
		}
		seen[o.Name] = true
		got, err := ex.cellAt(o.Place)
		if err != nil {
			return nil, fmt.Errorf("verify: output %q: %w", o.Name, err)
		}
		progLits = append(progLits, got)
		kernLits = append(kernLits, want)
		names = append(names, o.Name)
	}
	if len(seen) != len(cone.OutputNames) {
		for _, name := range cone.OutputNames {
			if !seen[name] {
				return nil, fmt.Errorf("verify: kernel output %q has no readout cell", name)
			}
		}
	}

	verdicts, stats := aig.CheckOutputs(cone.G, progLits, kernLits)
	rep := &EquivReport{Nodes: cone.G.NumAnds(), Stats: stats}
	for i, v := range verdicts {
		oe := OutputEquiv{Name: names[i], Verdict: v.Verdict, Method: v.Method}
		if v.Verdict == aig.VerdictRefuted {
			assign := make(map[string]bool, len(v.Counter))
			for j, name := range cone.InputNames {
				assign[name] = v.Counter[j]
			}
			oe.Counter = &Mismatch{
				Output:     names[i],
				Assignment: assign,
				Want:       cone.G.Eval(kernLits[i], v.Counter),
				Got:        cone.G.Eval(progLits[i], v.Counter),
			}
		}
		rep.Outputs = append(rep.Outputs, oe)
	}
	return rep, nil
}

// symExec is the prover's visitor on the strict walk: every cell and
// row-buffer bit carries the AIG literal of the Boolean function it holds,
// flat and indexed like the walk's definedness.
type symExec struct {
	w     *isa.Walker
	g     *aig.Graph
	inIdx map[string]int

	cellLit []aig.Lit
	bufLit  []aig.Lit

	bindErr error     // first host binding outside the kernel's inputs
	folded  []aig.Lit // scratch for CIM folds
}

func newSymExec(w *isa.Walker, g *aig.Graph, inIdx map[string]int) *symExec {
	return &symExec{
		w: w, g: g, inIdx: inIdx,
		cellLit: make([]aig.Lit, len(w.CellDef)),
		bufLit:  make([]aig.Lit, len(w.BufDef)),
	}
}

// cellAt returns the literal a readout of place would observe.
func (ex *symExec) cellAt(p layout.Place) (aig.Lit, error) {
	off, ok := ex.w.CellAt(p)
	if !ok {
		return 0, fmt.Errorf("readout cell %v was never touched by the program", p)
	}
	if !ex.w.CellDef[off] {
		return 0, fmt.Errorf("readout cell %v is undefined at program end", p)
	}
	return ex.cellLit[off], nil
}

// Fault stops the proof at the first strict error.
func (ex *symExec) Fault(isa.StrictError) bool { return false }

// Instr relabels a shifted row buffer's literals; bits shifted in from
// outside are undefined, exactly as the executors kill them.
func (ex *symExec) Instr(_ int, in *isa.Instruction) {
	if in.Kind == isa.KindShift {
		n := ex.w.Target.Cols
		base := in.Array * n
		isa.ShiftCols(ex.bufLit[base:base+n], in.ShiftDist(), aig.Const0)
	}
}

// Read senses the activated rows of one column and folds them through the
// column's op into the row buffer.
func (ex *symExec) Read(_ int, in *isa.Instruction, ci int, _ bool) {
	a, c := in.Array, in.Cols[ci]
	base, dst := ex.w.CellOff(a, c, 0), ex.w.BufOff(a, c)
	if !in.IsCIMRead() {
		ex.bufLit[dst] = ex.cellLit[base+in.Rows[0]]
		return
	}
	bits := ex.folded[:0]
	for _, r := range in.Rows {
		bits = append(bits, ex.cellLit[base+r])
	}
	ex.folded = bits[:0]
	var v aig.Lit
	switch op := in.Ops[ci]; op {
	case logic.And, logic.Nand:
		v = ex.g.AndN(bits)
	case logic.Or, logic.Nor:
		v = ex.g.OrN(bits)
	default: // Xor, Xnor: the walk admits sense ops only
		v = ex.g.XorN(bits)
	}
	if op := in.Ops[ci]; op == logic.Nand || op == logic.Nor || op == logic.Xnor {
		v = v.Not()
	}
	ex.bufLit[dst] = v
}

func (ex *symExec) Write(i int, in *isa.Instruction, ci int, slot int) {
	a, c := in.Array, in.Cols[ci]
	var v aig.Lit
	if slot >= 0 {
		idx, ok := ex.inIdx[in.Bindings[ci]]
		if !ok {
			if ex.bindErr == nil {
				ex.bindErr = fmt.Errorf("verify: instruction %d (%s): program binds %q, which is not a kernel input",
					i, *in, in.Bindings[ci])
			}
			v = aig.Const0 // keep walking: a strict fault later still wins
		} else {
			v = ex.g.Input(idx)
		}
	} else {
		v = ex.bufLit[ex.w.BufOff(in.Source(), c)]
	}
	ex.cellLit[ex.w.CellOff(a, c, in.Rows[0])] = v
}

func (ex *symExec) Not(_ int, in *isa.Instruction, ci int) {
	off := ex.w.BufOff(in.Array, in.Cols[ci])
	ex.bufLit[off] = ex.bufLit[off].Not()
}

// --- readout manifests ---------------------------------------------------

// FormatOutputs renders the readout contract in the sidecar manifest format
// golden programs are pinned with:
//
//	output <name> [array][col][row]
//
// one line per kernel output, '#' comments and blank lines ignored.
func FormatOutputs(outs []OutputAt) string {
	var sb strings.Builder
	sb.WriteString("# readout manifest: kernel output name -> cell its final value is read from\n")
	for _, o := range outs {
		fmt.Fprintf(&sb, "output %s %s\n", o.Name, o.Place)
	}
	return sb.String()
}

// ParseOutputs parses the FormatOutputs manifest format.
func ParseOutputs(text string) ([]OutputAt, error) {
	var outs []OutputAt
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != "output" {
			return nil, fmt.Errorf("verify: outputs manifest line %d: want \"output <name> [a][c][r]\", got %q", ln+1, line)
		}
		place, err := parsePlace(fields[2])
		if err != nil {
			return nil, fmt.Errorf("verify: outputs manifest line %d: %w", ln+1, err)
		}
		outs = append(outs, OutputAt{Name: fields[1], Place: place})
	}
	if len(outs) == 0 {
		return nil, errors.New("verify: outputs manifest names no outputs")
	}
	return outs, nil
}

func parsePlace(s string) (layout.Place, error) {
	orig := s
	var nums [3]int
	for i := 0; i < 3; i++ {
		if len(s) == 0 || s[0] != '[' {
			return layout.Place{}, fmt.Errorf("malformed place %q", orig)
		}
		end := strings.IndexByte(s, ']')
		if end < 0 {
			return layout.Place{}, fmt.Errorf("malformed place %q", orig)
		}
		v, err := strconv.Atoi(s[1:end])
		if err != nil {
			return layout.Place{}, fmt.Errorf("malformed place %q: %v", orig, err)
		}
		nums[i] = v
		s = s[end+1:]
	}
	if s != "" {
		return layout.Place{}, fmt.Errorf("malformed place %q", orig)
	}
	return layout.Place{Array: nums[0], Col: nums[1], Row: nums[2]}, nil
}
