package isa

// The strict-mode walk: one abstract execution of a program over the
// definedness lattice (undefined ⊑ defined) per cell and row-buffer bit. It
// owns every strict-mode rule — target validation, Instruction.Validate,
// bounds, def-before-use, the shift move-and-kill rule, host-input slots in
// first-use order — and its error text. Programs are lane-uniform and
// branch-free, so the lattice is exact. Consumers plug in as a Visitor:
// sim.Predecode emits micro-ops, verify.ProgramOpts tracks liveness, and
// verify.EquivalentOpts builds AIG literals. The test-only reference
// interpreter simref.Machine re-implements the rules concretely, and the
// differential tests compare the walk's consumers against it.

import (
	"fmt"

	"sherlock/internal/layout"
)

// Fault classifies a strict-mode violation with a stable identifier (the
// static verifier's diagnostic code).
type Fault string

// Strict-mode faults.
const (
	FaultInvalid       Fault = "invalid-instr"   // Instruction.Validate failed
	FaultBounds        Fault = "bounds"          // coordinate outside the target
	FaultUndefRead     Fault = "undef-read"      // read of a never-defined cell
	FaultUndefBufWrite Fault = "undef-buf-write" // write-back from an undefined row-buffer bit
	FaultUndefNot      Fault = "undef-not"       // NOT of an undefined row-buffer bit
	FaultUnsupportedOp Fault = "unsupported-op"  // scouting read with a non-sense op
)

// StrictError is one strict-mode violation, anchored to an instruction.
type StrictError struct {
	Instr int
	In    Instruction
	Fault Fault
	Msg   string
}

// Error renders the violation as the executors report it.
func (e *StrictError) Error() string {
	return fmt.Sprintf("sim: instruction %d (%s): %s", e.Instr, e.In, e.Msg)
}

// Visitor receives the strict walk's events in program order.
type Visitor interface {
	// Fault reports a violation. Returning true recovers: the walk assumes
	// the intended effect happened (for coordinates inside the fabric) and
	// continues. Returning false stops the walk with the fault as its error.
	Fault(e StrictError) bool
	// Instr announces an instruction that passed its instruction-level
	// checks; its column events follow. A shift has none: the walk moves
	// BufDef right after Instr.
	Instr(i int, in *Instruction)
	// Read reports read column ci before its buffer bit is marked defined.
	// sensed is false only when recovering from an out-of-bounds row: no
	// cell was sensed, but the buffer bit still counts as loaded.
	Read(i int, in *Instruction, ci int, sensed bool)
	// Write reports write column ci before its cell is marked defined. slot
	// is the host-input slot of a host write, -1 for a write-back.
	Write(i int, in *Instruction, ci int, slot int)
	// Not reports NOT column ci.
	Not(i int, in *Instruction, ci int)
}

// Walker holds the strict walk's state. Cells use the program's resource
// space clamped to the target, rows contiguous per column (CellOff), so a
// scouting read's operands form a stride-1 range. The row buffer spans the
// full target width (BufOff): shifts can carry live data past the widest
// directly-addressed column and back.
type Walker struct {
	Prog   Program
	Target layout.Target
	Space  Space

	CellDef []bool // cell definedness, indexed by CellOff
	BufDef  []bool // row-buffer definedness, indexed by BufOff

	Inputs []string       // host inputs in first-use order: slot -> name
	Slots  map[string]int // name -> slot

	// The instruction being walked, its visitor, and the fault that stopped
	// the walk.
	v   Visitor
	i   int
	in  *Instruction
	err *StrictError
}

// NewWalker validates the target and allocates the walk's state for p, with
// nothing defined yet.
func NewWalker(p Program, t layout.Target) (*Walker, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	// Clamp first: any coordinate beyond the target fails the walk's bounds
	// checks, but must not inflate the allocations before that.
	sp := p.ResourceSpace().Clamp(t.Arrays, t.Cols, t.Rows)
	return &Walker{
		Prog:    p,
		Target:  t,
		Space:   sp,
		CellDef: make([]bool, sp.Arrays*sp.BufCols*sp.Rows),
		BufDef:  make([]bool, sp.Arrays*t.Cols),
		Slots:   make(map[string]int),
	}, nil
}

// CellOff returns the flat offset of a cell inside the space.
func (w *Walker) CellOff(a, c, r int) int { return (a*w.Space.BufCols+c)*w.Space.Rows + r }

// BufOff returns the flat offset of a row-buffer bit.
func (w *Walker) BufOff(a, c int) int { return a*w.Target.Cols + c }

// CellAt returns the flat offset of a readout place, reporting false when
// the place lies outside the space (no instruction ever touched it).
func (w *Walker) CellAt(p layout.Place) (int, bool) {
	if p.Array < 0 || p.Array >= w.Space.Arrays ||
		p.Col < 0 || p.Col >= w.Space.BufCols ||
		p.Row < 0 || p.Row >= w.Space.Rows {
		return 0, false
	}
	return w.CellOff(p.Array, p.Col, p.Row), true
}

// Run walks the program once, feeding v. It returns the fault v declined to
// recover from, or nil.
func (w *Walker) Run(v Visitor) error {
	w.v = v
	defer func() { w.v, w.in = nil, nil }() // a kept Walker must not pin its visitor
	for i := range w.Prog {
		w.i, w.in = i, &w.Prog[i]
		if err := w.in.Validate(); err != nil {
			w.fault(FaultInvalid, "%s", err.Error())
		} else {
			switch w.in.Kind {
			case KindRead:
				w.read()
			case KindWrite:
				w.write()
			case KindShift:
				w.shift()
			case KindNot:
				w.not()
			}
		}
		if w.err != nil {
			return w.err
		}
	}
	return nil
}

// fault reports a violation at the current instruction, returning false
// once the visitor has stopped the walk.
func (w *Walker) fault(f Fault, format string, args ...any) bool {
	e := StrictError{Instr: w.i, In: *w.in, Fault: f, Msg: fmt.Sprintf(format, args...)}
	if w.v.Fault(e) {
		return true
	}
	w.err = &e
	return false
}

// place checks a coordinate against the target, reporting the first bad
// component. On false the caller skips the coordinate, or returns when the
// visitor stopped the walk (w.err set).
func (w *Walker) place(a, c, r int) bool {
	t := w.Target
	switch {
	case a < 0 || a >= t.Arrays:
		w.fault(FaultBounds, "sim: array %d outside target", a)
	case c < 0 || c >= t.Cols:
		w.fault(FaultBounds, "sim: column %d outside target", c)
	case r < 0 || r >= t.Rows:
		w.fault(FaultBounds, "sim: row %d outside target", r)
	default:
		return true
	}
	return false
}

// array checks an array id (prefix names which one); a bad array skips the
// whole instruction.
func (w *Walker) array(a int, prefix string) bool {
	if a < w.Target.Arrays {
		return true
	}
	w.fault(FaultBounds, "%sarray %d outside target", prefix, a)
	return false
}

func (w *Walker) read() {
	in, a := w.in, w.in.Array
	if !w.array(a, "") {
		return
	}
	rowsOK := true
	for _, r := range in.Rows {
		if !w.place(a, 0, r) {
			if w.err != nil {
				return
			}
			rowsOK = false
		}
	}
	w.v.Instr(w.i, in)
	cim := in.IsCIMRead()
	for ci, c := range in.Cols {
		if !w.place(a, c, in.Rows[0]) {
			if w.err != nil {
				return
			}
			continue
		}
		if rowsOK {
			rows := in.Rows
			if !cim {
				rows = rows[:1] // a plain read senses only Rows[0]
			}
			for _, r := range rows {
				if off := w.CellOff(a, c, r); !w.CellDef[off] {
					if !w.fault(FaultUndefRead, "read of undefined cell [%d][%d][%d]", a, c, r) {
						return
					}
					w.CellDef[off] = true // recovery: assume the read's intent
				}
			}
			if cim && !in.Ops[ci].IsSense() &&
				!w.fault(FaultUnsupportedOp, "unsupported CIM op %v", in.Ops[ci]) {
				return
			}
		}
		w.v.Read(w.i, in, ci, rowsOK)
		w.BufDef[w.BufOff(a, c)] = true
	}
}

func (w *Walker) write() {
	in, a, row := w.in, w.in.Array, w.in.Rows[0]
	if !w.array(a, "") {
		return
	}
	src := in.Source()
	if in.HasSrcArray && !w.array(src, "source ") {
		return
	}
	w.v.Instr(w.i, in)
	host := in.IsHostWrite()
	for ci, c := range in.Cols {
		if !w.place(a, c, row) {
			if w.err != nil {
				return
			}
			continue
		}
		slot := -1
		if host {
			slot = w.slot(in.Bindings[ci])
		} else if off := w.BufOff(src, c); !w.BufDef[off] {
			if !w.fault(FaultUndefBufWrite, "write from undefined row-buffer bit [%d][%d]", src, c) {
				return
			}
			w.BufDef[off] = true // recovery
		}
		w.v.Write(w.i, in, ci, slot)
		w.CellDef[w.CellOff(a, c, row)] = true
	}
}

func (w *Walker) slot(name string) int {
	if s, ok := w.Slots[name]; ok {
		return s
	}
	s := len(w.Inputs)
	w.Inputs = append(w.Inputs, name)
	w.Slots[name] = s
	return s
}

func (w *Walker) shift() {
	in, a := w.in, w.in.Array
	if !w.array(a, "") {
		return
	}
	w.v.Instr(w.i, in)
	n := w.Target.Cols
	ShiftCols(w.BufDef[a*n:(a+1)*n], in.ShiftDist(), false)
}

func (w *Walker) not() {
	in, a := w.in, w.in.Array
	if !w.array(a, "") {
		return
	}
	w.v.Instr(w.i, in)
	for ci, c := range in.Cols {
		if c >= w.Target.Cols {
			if !w.fault(FaultBounds, "column %d outside target", c) {
				return
			}
			continue
		}
		if off := w.BufOff(a, c); !w.BufDef[off] {
			if !w.fault(FaultUndefNot, "NOT of undefined row-buffer bit [%d][%d]", a, c) {
				return
			}
			w.BufDef[off] = true // recovery: NOT produces a value in place
		}
		w.v.Not(w.i, in, ci)
	}
}

// ShiftDist returns a shift's signed column distance: positive moves the
// row buffer right, negative left.
func (in Instruction) ShiftDist() int {
	if in.Right {
		return in.ShiftBy
	}
	return -in.ShiftBy
}

// ShiftCols applies the shift move-and-kill rule in place to one array's
// per-column row-buffer state: column c takes column c-d's entry, and
// columns shifted in from outside the buffer become kill.
func ShiftCols[T any](region []T, d int, kill T) {
	n := len(region)
	var vacated []T
	switch {
	case d >= n || -d >= n:
		vacated = region
	case d > 0:
		copy(region[d:], region[:n-d])
		vacated = region[:d]
	case d < 0:
		copy(region[:n+d], region[-d:])
		vacated = region[n+d:]
	}
	for c := range vacated {
		vacated[c] = kill
	}
}
