// Package verify statically analyzes CIM instruction programs: it proves,
// without executing a single lane, every property the executors enforce
// dynamically, plus liveness diagnostics no executor can give.
//
// The analysis is the strict-mode walk of isa.Walker — the abstract
// interpretation over a two-point definedness lattice (undefined ⊑ defined)
// per cell and per row-buffer bit that sim.Predecode also decodes from, so
// the verifier, the pre-decoder and the translation validator reach every
// verdict, and word every error, identically by construction. The test-only
// reference interpreter simref.Machine re-implements the rules concretely
// and independently; the differential fuzz in internal/sim checks the walk
// against it. Because programs are
// lane-uniform and branch-free, the lattice is exact, not an approximation:
// a read is def-before-use for every input iff it is def-before-use
// abstractly.
//
// Properties proved (error severity — the program is rejected exactly when
// strict mode would fail it, with identical text):
//
//   - structural instruction invariants (isa.Instruction.Validate), which
//     also discharge merge legality: a merged scouting read activates one
//     shared row set across its column group by construction (single Rows
//     list), carries exactly one sense op per column (op-mux consistency),
//     and unique sorted column/row lists make intra-instruction hazards
//     (two accesses to one cell or buffer bit in the same step) impossible;
//   - array/column/row bounds against the fabric geometry;
//   - def-before-use: every cell read, row-buffer write-back source, and
//     NOT target is dominated by a defining write/read, with shifts moving
//     definedness and killing bits shifted in from outside;
//   - host-input binding order: the first-use order the walk observes is
//     the canonical slot order (isa.Program.Bindings), exposed for callers
//     to cross-check against sim.Predecode's slot table.
//
// Diagnostics beyond strict mode (warning/info severity):
//
//   - dead stores: a row-buffer bit loaded or computed, then overwritten or
//     shifted out before anything consumed it;
//   - write-after-write shadows: a cell overwritten before any read saw the
//     first value;
//   - unused operands: a host input loaded into the array but never read by
//     any instruction;
//   - row-buffer liveness: values still sitting unconsumed in a row buffer
//     when the program ends (computed but never written back);
//   - multi-row activations beyond a technology's limit (Options.MaxRows).
package verify

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"sherlock/internal/isa"
	"sherlock/internal/layout"
)

// Severity grades a finding.
type Severity int

// Severities, most severe first.
const (
	SevError   Severity = iota // strict mode would fail
	SevWarning                 // legal but almost certainly a codegen bug
	SevInfo                    // worth a look, often benign
)

func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	case SevInfo:
		return "info"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// Diagnostic codes. Stable identifiers for filtering and tests.
const (
	CodeBadTarget     = "bad-target"                   // degenerate fabric geometry
	CodeInvalidInstr  = string(isa.FaultInvalid)       // structural invariant broken
	CodeBounds        = string(isa.FaultBounds)        // coordinate outside the fabric
	CodeUndefRead     = string(isa.FaultUndefRead)     // read of a never-written cell
	CodeUndefBufWrite = string(isa.FaultUndefBufWrite) // write-back from an undefined buffer bit
	CodeUndefNot      = string(isa.FaultUndefNot)      // NOT of an undefined buffer bit
	CodeUnsupportedOp = string(isa.FaultUnsupportedOp) // scouting read with a non-foldable op
	CodeDeadStore     = "dead-store"                   // buffer value produced but never consumed
	CodeWAWShadow     = "waw-shadow"                   // cell overwritten before any read
	CodeUnusedInput   = "unused-input"                 // host input never read back
	CodeBufLive       = "buf-liveness"                 // buffer value still live at program end
	CodeRowLimit      = "row-limit"                    // activation wider than Options.MaxRows
)

// Finding is one diagnostic, anchored to an instruction index (-1 for
// program-level findings).
type Finding struct {
	Instr    int
	Severity Severity
	Code     string
	Msg      string
}

// String renders "instr 3: error[undef-read]: <message>", or "program: ..."
// for program-level findings.
func (f Finding) String() string {
	if f.Instr < 0 {
		return fmt.Sprintf("program: %v[%s]: %s", f.Severity, f.Code, f.Msg)
	}
	return fmt.Sprintf("instr %d: %v[%s]: %s", f.Instr, f.Severity, f.Code, f.Msg)
}

// Report is the result of verifying one program.
type Report struct {
	Findings []Finding

	prog     isa.Program
	bindings []string
}

// OK reports whether the program carries no error-severity findings — the
// static equivalent of "the executors run it strict-clean" (given every
// host input is bound; binding completeness is the one property only the
// caller's input map can decide).
func (r *Report) OK() bool {
	for _, f := range r.Findings {
		if f.Severity == SevError {
			return false
		}
	}
	return true
}

// Clean reports whether the program carries no error or warning findings.
func (r *Report) Clean() bool {
	for _, f := range r.Findings {
		if f.Severity <= SevWarning {
			return false
		}
	}
	return true
}

// Err returns the first error-severity finding formatted exactly as
// sim.Predecode (and the reference simref.Machine) would have failed, or nil.
func (r *Report) Err() error {
	for _, f := range r.Findings {
		if f.Severity != SevError {
			continue
		}
		if f.Instr < 0 {
			return errors.New(f.Msg)
		}
		return &isa.StrictError{Instr: f.Instr, In: r.prog[f.Instr], Msg: f.Msg}
	}
	return nil
}

// Bindings returns the host-input names in the first-use order the strict
// walk observed — by construction the canonical slot order of
// isa.Program.Bindings and sim.Predecode.
func (r *Report) Bindings() []string { return append([]string(nil), r.bindings...) }

// Instruction returns the instruction a finding anchors to, or a zero
// instruction for program-level findings.
func (r *Report) Instruction(f Finding) isa.Instruction {
	if f.Instr < 0 || f.Instr >= len(r.prog) {
		return isa.Instruction{}
	}
	return r.prog[f.Instr]
}

// Options tunes the optional checks.
type Options struct {
	// MaxRows, when positive, warns on scouting reads activating more
	// simultaneous rows than the technology supports (device.Params.MaxRows).
	MaxRows int
}

// Program verifies p against the fabric geometry t with default options.
func Program(p isa.Program, t layout.Target) *Report {
	return ProgramOpts(p, t, Options{})
}

// ProgramOpts verifies p against t.
func ProgramOpts(p isa.Program, t layout.Target, opts Options) *Report {
	rep := &Report{prog: p}
	w, err := isa.NewWalker(p, t)
	if err != nil {
		rep.add(-1, SevError, CodeBadTarget, err.Error())
		return rep
	}
	lv := newLiveness(w, opts, rep)
	_ = w.Run(lv) // nil: lv recovers from every fault, recording it as a finding
	lv.finish()
	rep.bindings = w.Inputs
	return rep
}

func (r *Report) add(instr int, sev Severity, code, msg string) {
	r.Findings = append(r.Findings, Finding{Instr: instr, Severity: sev, Code: code, Msg: msg})
}

// liveness is the verifier's visitor on the strict walk. It records every
// strict fault as an error finding and recovers — the walk then assumes the
// intended effect happened, so one bug does not cascade into a wall of
// follow-on findings — and tracks the shadow state behind the diagnostics
// no executor can give. State is flat, indexed like the walk's definedness.
type liveness struct {
	w    *isa.Walker
	rep  *Report
	opts Options

	cellWriter []int32 // last writing instruction, -1 = never written
	cellRead   []bool  // value read since that write
	cellSlot   []int32 // host-input slot the value came from, -1 = computed
	bufProd    []int32 // producing instruction of the buffer value, -1 = none
	bufUsed    []bool  // value consumed since produced

	slotFirst []int32 // first host write per slot
	slotUsed  []bool
}

func newLiveness(w *isa.Walker, opts Options, rep *Report) *liveness {
	numCells, numBuf := len(w.CellDef), len(w.BufDef)
	lv := &liveness{
		w: w, rep: rep, opts: opts,
		cellWriter: make([]int32, numCells),
		cellRead:   make([]bool, numCells),
		cellSlot:   make([]int32, numCells),
		bufProd:    make([]int32, numBuf),
		bufUsed:    make([]bool, numBuf),
	}
	for i := range lv.cellWriter {
		lv.cellWriter[i] = -1
		lv.cellSlot[i] = -1
	}
	for i := range lv.bufProd {
		lv.bufProd[i] = -1
	}
	return lv
}

func (lv *liveness) Fault(e isa.StrictError) bool {
	lv.rep.add(e.Instr, SevError, string(e.Fault), e.Msg)
	return true
}

// Instr warns on over-wide activations and, for a shift, reports live
// unconsumed bits pushed off the buffer edge as dead stores before moving
// the shadow state with the data.
func (lv *liveness) Instr(i int, in *isa.Instruction) {
	switch {
	case in.IsCIMRead():
		if lv.opts.MaxRows > 0 && len(in.Rows) > lv.opts.MaxRows {
			lv.rep.add(i, SevWarning, CodeRowLimit, fmt.Sprintf(
				"scouting read activates %d rows; technology limit is %d", len(in.Rows), lv.opts.MaxRows))
		}
	case in.Kind == isa.KindShift:
		d, n := in.ShiftDist(), lv.w.Target.Cols
		base := in.Array * n
		for c := 0; c < n; c++ {
			if dst := c + d; dst >= 0 && dst < n {
				continue
			}
			if p := lv.bufProd[base+c]; p >= 0 && !lv.bufUsed[base+c] {
				lv.rep.add(int(p), SevWarning, CodeDeadStore, fmt.Sprintf(
					"row-buffer bit [%d][%d] is loaded but never used before instruction %d shifts it out", in.Array, c, i))
			}
		}
		isa.ShiftCols(lv.bufProd[base:base+n], d, -1)
		isa.ShiftCols(lv.bufUsed[base:base+n], d, false)
	}
}

// Read consumes the sensed cells, and the result lands in the row buffer.
func (lv *liveness) Read(i int, in *isa.Instruction, ci int, sensed bool) {
	a, c := in.Array, in.Cols[ci]
	if sensed {
		rows := in.Rows
		if !in.IsCIMRead() {
			rows = rows[:1]
		}
		for _, r := range rows {
			off := lv.w.CellOff(a, c, r)
			lv.cellRead[off] = true
			if s := lv.cellSlot[off]; s >= 0 {
				lv.slotUsed[s] = true
			}
		}
	}
	lv.produceBuf(i, a, c)
}

// produceBuf records a new value landing in buffer bit (a,c), reporting the
// previous value as a dead store if nothing ever consumed it.
func (lv *liveness) produceBuf(i, a, c int) {
	off := lv.w.BufOff(a, c)
	if p := lv.bufProd[off]; p >= 0 && !lv.bufUsed[off] {
		lv.rep.add(int(p), SevWarning, CodeDeadStore, fmt.Sprintf(
			"row-buffer bit [%d][%d] is loaded but never used before instruction %d overwrites it", a, c, i))
	}
	lv.bufProd[off] = int32(i)
	lv.bufUsed[off] = false
}

func (lv *liveness) Write(i int, in *isa.Instruction, ci int, slot int) {
	a, c, row := in.Array, in.Cols[ci], in.Rows[0]
	if slot == len(lv.slotFirst) { // first use of a new host input
		lv.slotFirst = append(lv.slotFirst, int32(i))
		lv.slotUsed = append(lv.slotUsed, false)
	}
	if slot < 0 {
		lv.bufUsed[lv.w.BufOff(in.Source(), c)] = true
	}
	off := lv.w.CellOff(a, c, row)
	if prev := lv.cellWriter[off]; prev >= 0 && !lv.cellRead[off] {
		lv.rep.add(int(prev), SevWarning, CodeWAWShadow, fmt.Sprintf(
			"cell [%d][%d][%d] is overwritten by instruction %d before any read (write-after-write shadow)",
			a, c, row, i))
	}
	lv.cellWriter[off] = int32(i)
	lv.cellRead[off] = false
	lv.cellSlot[off] = int32(slot)
}

// Not both consumes the old value and produces a new one in place.
func (lv *liveness) Not(i int, in *isa.Instruction, ci int) {
	a, c := in.Array, in.Cols[ci]
	lv.bufUsed[lv.w.BufOff(a, c)] = true
	lv.produceBuf(i, a, c)
}

// finish emits the end-of-program diagnostics: unused host inputs and
// buffer values that never made it back into a cell. Per-bit events
// aggregate per producing instruction so one forgotten write-back reads as
// one finding, not one per column.
func (lv *liveness) finish() {
	for s, used := range lv.slotUsed {
		if !used {
			lv.rep.add(int(lv.slotFirst[s]), SevWarning, CodeUnusedInput, fmt.Sprintf(
				"host input %q is loaded but never read by any instruction", lv.w.Inputs[s]))
		}
	}
	live := make(map[int32][]string)
	for a := 0; a < lv.w.Space.Arrays; a++ {
		for c := 0; c < lv.w.Target.Cols; c++ {
			off := lv.w.BufOff(a, c)
			if p := lv.bufProd[off]; p >= 0 && !lv.bufUsed[off] {
				live[p] = append(live[p], fmt.Sprintf("[%d][%d]", a, c))
			}
		}
	}
	prods := make([]int32, 0, len(live))
	for p := range live { //sherlock:allow rangemap (sorted below)
		prods = append(prods, p)
	}
	sort.Slice(prods, func(i, j int) bool { return prods[i] < prods[j] })
	for _, p := range prods {
		lv.rep.add(int(p), SevInfo, CodeBufLive, fmt.Sprintf(
			"row-buffer bit(s) %s hold unconsumed values at program end", strings.Join(live[p], ",")))
	}
}
