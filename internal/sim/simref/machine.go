// Package simref is the reference interpreter for CIM programs, imported
// only by tests: a scalar machine that runs one input vector per pass over
// boolean cell matrices and row buffers. It implements strict mode (reading
// a never-defined cell or buffer bit is an error) on its own, apart from the
// isa.Walker that the executor, the verifier and the translation validator
// share, so differential tests can hold those engines against it.
package simref

import (
	"fmt"

	"sherlock/internal/isa"
	"sherlock/internal/layout"
)

// Machine is the reference CIM array interpreter.
type Machine struct {
	target layout.Target

	cells   [][][]bool // [array][row][col]
	defined [][][]bool

	rowbuf [][]bool // [array][col]
	bufDef [][]bool

	// Scratch buffers hoisted off the hot path: readBits gathers one
	// column's operands in stepRead, shiftBuf/shiftDef double-buffer the
	// row buffer in stepShift. Without them every read column and every
	// shift instruction allocates.
	readBits           []bool
	shiftBuf, shiftDef []bool
}

// NewMachine builds a zeroed machine for the target. No cell is "defined"
// until written.
func NewMachine(t layout.Target) *Machine {
	if err := t.Validate(); err != nil {
		panic(err)
	}
	m := &Machine{target: t}
	m.cells = make([][][]bool, t.Arrays)
	m.defined = make([][][]bool, t.Arrays)
	m.rowbuf = make([][]bool, t.Arrays)
	m.bufDef = make([][]bool, t.Arrays)
	for a := 0; a < t.Arrays; a++ {
		m.cells[a] = make([][]bool, t.Rows)
		m.defined[a] = make([][]bool, t.Rows)
		for r := 0; r < t.Rows; r++ {
			m.cells[a][r] = make([]bool, t.Cols)
			m.defined[a][r] = make([]bool, t.Cols)
		}
		m.rowbuf[a] = make([]bool, t.Cols)
		m.bufDef[a] = make([]bool, t.Cols)
	}
	m.readBits = make([]bool, 0, 8)
	m.shiftBuf = make([]bool, t.Cols)
	m.shiftDef = make([]bool, t.Cols)
	return m
}

// Cell returns the stored bit at a cell; the second result is false if the
// cell was never written.
func (m *Machine) Cell(p layout.Place) (bool, bool) {
	if err := m.checkPlace(p.Array, p.Col, p.Row); err != nil {
		return false, false
	}
	return m.cells[p.Array][p.Row][p.Col], m.defined[p.Array][p.Row][p.Col]
}

func (m *Machine) checkPlace(array, col, row int) error {
	if array < 0 || array >= m.target.Arrays {
		return fmt.Errorf("sim: array %d outside target", array)
	}
	if col < 0 || col >= m.target.Cols {
		return fmt.Errorf("sim: column %d outside target", col)
	}
	if row < 0 || row >= m.target.Rows {
		return fmt.Errorf("sim: row %d outside target", row)
	}
	return nil
}

// Run executes the program from the machine's current state. Host-write
// bindings are resolved against inputs. Execution stops at the first error,
// identifying the offending instruction.
func (m *Machine) Run(p isa.Program, inputs map[string]bool) error {
	for i, in := range p {
		if err := m.step(in, inputs); err != nil {
			return fmt.Errorf("sim: instruction %d (%s): %w", i, in, err)
		}
	}
	return nil
}

func (m *Machine) step(in isa.Instruction, inputs map[string]bool) error {
	if err := in.Validate(); err != nil {
		return err
	}
	switch in.Kind {
	case isa.KindRead:
		return m.stepRead(in)
	case isa.KindWrite:
		return m.stepWrite(in, inputs)
	case isa.KindShift:
		return m.stepShift(in)
	case isa.KindNot:
		return m.stepNot(in)
	}
	return fmt.Errorf("unknown kind %v", in.Kind)
}

func (m *Machine) stepRead(in isa.Instruction) error {
	a := in.Array
	if a >= m.target.Arrays {
		return fmt.Errorf("array %d outside target", a)
	}
	for _, r := range in.Rows {
		if err := m.checkPlace(a, 0, r); err != nil {
			return err
		}
	}
	for i, c := range in.Cols {
		if err := m.checkPlace(a, c, in.Rows[0]); err != nil {
			return err
		}
		bits := m.readBits[:0]
		for _, r := range in.Rows {
			if !m.defined[a][r][c] {
				return fmt.Errorf("read of undefined cell [%d][%d][%d]", a, c, r)
			}
			bits = append(bits, m.cells[a][r][c])
		}
		m.readBits = bits[:0]
		var v bool
		if in.IsCIMRead() {
			v = in.Ops[i].Eval(bits...)
		} else {
			v = bits[0]
		}
		m.rowbuf[a][c] = v
		m.bufDef[a][c] = true
	}
	return nil
}

func (m *Machine) stepWrite(in isa.Instruction, inputs map[string]bool) error {
	a, row := in.Array, in.Rows[0]
	if a >= m.target.Arrays {
		return fmt.Errorf("array %d outside target", a)
	}
	src := a
	if in.HasSrcArray {
		src = in.SrcArray
		if src >= m.target.Arrays {
			return fmt.Errorf("source array %d outside target", src)
		}
	}
	for i, c := range in.Cols {
		if err := m.checkPlace(a, c, row); err != nil {
			return err
		}
		var v bool
		switch {
		case in.IsHostWrite():
			val, ok := inputs[in.Bindings[i]]
			if !ok {
				return fmt.Errorf("unbound input %q", in.Bindings[i])
			}
			v = val
		default:
			if !m.bufDef[src][c] {
				return fmt.Errorf("write from undefined row-buffer bit [%d][%d]", src, c)
			}
			v = m.rowbuf[src][c]
		}
		m.cells[a][row][c] = v
		m.defined[a][row][c] = true
	}
	return nil
}

func (m *Machine) stepShift(in isa.Instruction) error {
	a := in.Array
	if a >= m.target.Arrays {
		return fmt.Errorf("array %d outside target", a)
	}
	n := m.target.Cols
	nb, nd := m.shiftBuf, m.shiftDef
	d := in.ShiftDist()
	for c := 0; c < n; c++ {
		srcCol := c - d
		if srcCol >= 0 && srcCol < n {
			nb[c] = m.rowbuf[a][srcCol]
			nd[c] = m.bufDef[a][srcCol]
		} else {
			nb[c], nd[c] = false, false
		}
	}
	// Swap the shifted scratch in; the old buffer becomes next time's
	// scratch.
	m.rowbuf[a], m.shiftBuf = nb, m.rowbuf[a]
	m.bufDef[a], m.shiftDef = nd, m.bufDef[a]
	return nil
}

func (m *Machine) stepNot(in isa.Instruction) error {
	a := in.Array
	if a >= m.target.Arrays {
		return fmt.Errorf("array %d outside target", a)
	}
	for _, c := range in.Cols {
		if c >= m.target.Cols {
			return fmt.Errorf("column %d outside target", c)
		}
		if !m.bufDef[a][c] {
			return fmt.Errorf("NOT of undefined row-buffer bit [%d][%d]", a, c)
		}
		m.rowbuf[a][c] = !m.rowbuf[a][c]
	}
	return nil
}

// ReadOut returns the value stored at the cell, failing when the cell was
// never written — the host-side result readout.
func (m *Machine) ReadOut(p layout.Place) (bool, error) {
	v, ok := m.Cell(p)
	if !ok {
		return false, fmt.Errorf("sim: readout of undefined cell %v", p)
	}
	return v, nil
}
