package sim

// Predecode splits simulation into a one-time program transformation and a
// repeated bulk execution, the way SIMDRAM-style frameworks separate
// "generate the μop sequence" from "issue it over the data width". An
// interpreter re-runs Instruction.Validate, re-checks bounds, re-hashes input
// names and re-walks nested structures on every pass; a Monte-Carlo campaign
// or a RunBatch sweep executes the SAME program 10^4..10^6 times, so all of
// that work is loop-invariant. Exec hoists it: one strict walk (isa.Walker)
// validates everything, resolves every cell and row-buffer access to a flat
// offset and binds input names to integer slots, and the decoder fuses the
// walk's events into a flat []microOp stream whose inner loop is a tight
// switch with no maps, no validation and no nested indexing.
//
// Strict-mode definedness resolves at decode time too: the program is
// lane-uniform and every read either is dominated by a same-run write or is
// an error, so an undefined read cannot depend on the data. The
// executor therefore carries no defined masks at all — which also makes
// ExecMachine.Reset O(1) in the cell count. The static verifier and the
// translation validator run the same walk, so all three agree on every
// verdict and error by construction; the test-only reference interpreter
// simref.Machine is the independent check.

import (
	"sherlock/internal/isa"
	"sherlock/internal/layout"
	"sherlock/internal/logic"
)

// Micro-op kinds. Fold ops carry a sense class for fault injection; the
// remaining ops only move words.
const (
	uopCopy      uint8 = iota // plain read: buf[dst] = cells[src]
	uopFoldAnd                // CIM read: buf[dst] = [~]AND(cells[src+r] for r in rows)
	uopFoldOr                 // CIM read, OR/NOR fold
	uopFoldXor                // CIM read, XOR/XNOR fold
	uopHostWrite              // cells[dst] = input slot src
	uopBufWrite               // cells[dst] = buf[src] (src may be another array)
	uopNot                    // buf[dst] = ^buf[dst]
	uopShift                  // move whole row-buffer columns of one array
)

// microOp is one fused step of the decoded program. Scatter/gather ops
// address the shared srcs/dsts pools through [p0,p1); fold ops additionally
// take their activated rows from rowOffs[rows0:rows1]. A shift carries its
// array and signed distance directly.
type microOp struct {
	kind         uint8
	inv          bool  // invert the fold result (NAND/NOR/XNOR)
	class        int32 // sense-class index for fault injection; -1 for none
	p0, p1       int32 // operand range in srcs/dsts
	rows0, rows1 int32 // fold-row range in rowOffs
	array        int32 // shift only
	dist         int32 // shift only; negative = left
}

// bindUse records one host-write column in (instruction, column) order, so
// the unbound-input check can report the same instruction the reference
// interpreter (simref.Machine) fails at.
type bindUse struct {
	instr int32
	slot  int32
}

// Exec is a program pre-decoded for one target: immutable after Predecode
// and safe for concurrent use by any number of ExecMachines.
type Exec struct {
	// walk is the finished strict walk: geometry, flat offsets, final cell
	// definedness (for readout) and the input slot table.
	walk *isa.Walker

	// Flat state sizes, per the walk's layout. The row buffer spans the full
	// target width: bufCols = target.Cols words per array.
	numCells int
	bufCols  int
	numBuf   int

	ops     []microOp
	srcs    []int32
	dsts    []int32
	rowOffs []int32

	classes []isa.SenseClass

	inputNames []string // slot -> name, program first-use order
	bindUses   []bindUse
}

// Predecode validates the program against the target and compiles it into
// an executor. Every strict-mode error an interpreting machine would raise at
// run time — except unbound inputs, which depend on the caller's binding map —
// is raised here instead, with the reference interpreter's message.
func Predecode(p isa.Program, t layout.Target) (*Exec, error) {
	w, err := isa.NewWalker(p, t)
	if err != nil {
		return nil, err
	}
	nOps, nPairs, nRows := decodeSizes(p)
	d := &decoder{
		e: &Exec{
			walk:     w,
			numCells: len(w.CellDef),
			bufCols:  t.Cols,
			numBuf:   len(w.BufDef),
			ops:      make([]microOp, 0, nOps),
			srcs:     make([]int32, 0, nPairs),
			dsts:     make([]int32, 0, nPairs),
			rowOffs:  make([]int32, 0, nRows),
		},
		w:        w,
		classIdx: make(map[isa.SenseClass]int32),
	}
	if err := w.Run(d); err != nil {
		return nil, err
	}
	d.e.inputNames = w.Inputs
	return d.e, nil
}

// decodeSizes bounds, in one pass over the program, what the decoder
// appends: micro-ops (one per instruction, plus one per op change along a
// scouting read's columns), operand pairs (one per column of a read, write
// or NOT) and activated rows of reads. Predecode sizes its pools with
// them, so decoding grows nothing by doubling.
func decodeSizes(p isa.Program) (ops, pairs, rows int) {
	for i := range p {
		in := &p[i]
		ops++
		switch in.Kind {
		case isa.KindShift:
			continue
		case isa.KindRead:
			rows += len(in.Rows)
			for c := 1; c < len(in.Ops); c++ {
				if in.Ops[c] != in.Ops[c-1] {
					ops++
				}
			}
		}
		pairs += len(in.Cols)
	}
	return ops, pairs, rows
}

// decoder is the strict walk's micro-op emitter.
type decoder struct {
	e        *Exec
	w        *isa.Walker
	classIdx map[isa.SenseClass]int32

	// Per-instruction state: the open (still growing) micro-op, its fold op,
	// and the instruction's activated-row range in rowOffs.
	open         int
	runOp        logic.Op
	rows0, rows1 int32
}

// Fault stops the walk at the first strict error.
func (d *decoder) Fault(isa.StrictError) bool { return false }

func (d *decoder) Instr(_ int, in *isa.Instruction) {
	e := d.e
	d.open = -1
	switch in.Kind {
	case isa.KindRead:
		d.rows0 = int32(len(e.rowOffs))
		for _, r := range in.Rows {
			e.rowOffs = append(e.rowOffs, int32(r))
		}
		d.rows1 = int32(len(e.rowOffs))
	case isa.KindWrite:
		kind := uopBufWrite
		if in.IsHostWrite() {
			kind = uopHostWrite
		}
		d.openOp(microOp{kind: kind, class: -1})
	case isa.KindNot:
		d.openOp(microOp{kind: uopNot, class: -1})
	case isa.KindShift:
		e.ops = append(e.ops, microOp{kind: uopShift, class: -1,
			array: int32(in.Array), dist: int32(in.ShiftDist())})
	}
}

// openOp starts a scatter/gather micro-op at the current end of the operand
// pools.
func (d *decoder) openOp(op microOp) {
	op.p0 = int32(len(d.e.srcs))
	d.e.ops = append(d.e.ops, op)
	d.open = len(d.e.ops) - 1
}

// emit appends one operand pair to the open micro-op.
func (d *decoder) emit(src, dst int) {
	e := d.e
	e.srcs = append(e.srcs, int32(src))
	e.dsts = append(e.dsts, int32(dst))
	e.ops[d.open].p1 = int32(len(e.srcs))
}

// Read fuses runs of ADJACENT same-op columns into one micro-op. Splitting
// on every op change (not grouping all columns of an op) keeps the fault
// sampler's per-column draw order identical to a column-by-column pass: all
// sense classes share one RNG, so cross-class call order is part of the
// determinism contract.
func (d *decoder) Read(_ int, in *isa.Instruction, ci int, _ bool) {
	a, c := in.Array, in.Cols[ci]
	if !in.IsCIMRead() {
		if d.open < 0 {
			d.openOp(microOp{kind: uopCopy, class: -1})
		}
		d.emit(d.w.CellOff(a, c, in.Rows[0]), d.w.BufOff(a, c))
		return
	}
	if op := in.Ops[ci]; d.open < 0 || op != d.runOp {
		kind, inv := foldKind(op)
		d.openOp(microOp{
			kind: kind, inv: inv,
			class: d.classFor(op, len(in.Rows)),
			rows0: d.rows0, rows1: d.rows1,
		})
		d.runOp = op
	}
	d.emit(d.w.CellOff(a, c, 0), d.w.BufOff(a, c))
}

func (d *decoder) Write(instr int, in *isa.Instruction, ci int, slot int) {
	a, c := in.Array, in.Cols[ci]
	dst := d.w.CellOff(a, c, in.Rows[0])
	if slot >= 0 {
		d.e.bindUses = append(d.e.bindUses, bindUse{instr: int32(instr), slot: int32(slot)})
		d.emit(slot, dst)
		return
	}
	d.emit(d.w.BufOff(in.Source(), c), dst)
}

// Not mirrors its target into both pools: srcs and dsts stay in lockstep
// across every micro-op.
func (d *decoder) Not(_ int, in *isa.Instruction, ci int) {
	off := d.w.BufOff(in.Array, in.Cols[ci])
	d.emit(off, off)
}

func (d *decoder) classFor(op logic.Op, rows int) int32 {
	cls := isa.SenseClass{Op: op, Rows: rows}
	if id, ok := d.classIdx[cls]; ok {
		return id
	}
	id := int32(len(d.e.classes))
	d.e.classes = append(d.e.classes, cls)
	d.classIdx[cls] = id
	return id
}

// foldKind maps a sense op (the walk admits no other) to its fold and
// inversion.
func foldKind(op logic.Op) (uint8, bool) {
	switch op {
	case logic.And, logic.Nand:
		return uopFoldAnd, op == logic.Nand
	case logic.Or, logic.Nor:
		return uopFoldOr, op == logic.Nor
	}
	return uopFoldXor, op == logic.Xnor
}

// NumSlots returns the number of distinct host-input slots.
func (e *Exec) NumSlots() int { return len(e.inputNames) }

// InputNames returns the host-write input names in slot order — the
// program's first-use order, identical to isa.Program.Bindings.
func (e *Exec) InputNames() []string { return append([]string(nil), e.inputNames...) }

// Slot resolves an input name to its slot, reporting whether the program
// consumes it.
func (e *Exec) Slot(name string) (int, bool) {
	s, ok := e.walk.Slots[name]
	return s, ok
}

// Defined reports whether the program leaves the cell holding data — the
// decode-time definedness that gates ReadOutWord. Places outside the
// decoded space are simply undefined.
func (e *Exec) Defined(p layout.Place) bool {
	off, ok := e.walk.CellAt(p)
	return ok && e.walk.CellDef[off]
}

// MicroOps returns the decoded micro-op count (fused instruction steps).
func (e *Exec) MicroOps() int { return len(e.ops) }
