package sim

// Shared program generators for the executor tests: valid-by-construction
// random programs (the differential fuzzers' corpus) and a high-decision
// fault-sampler program.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"sherlock/internal/isa"
	"sherlock/internal/layout"
	"sherlock/internal/logic"
)

// progModel tracks which cells and row-buffer bits a generated program has
// defined, so the generator only emits valid-by-construction instructions
// and the test knows which cells to read back. State is flat: cell
// (a, r, c) at (a*Rows+r)*Cols+c, buffer bit (a, c) at a*Cols+c.
type progModel struct {
	t        layout.Target
	cellsDef []bool
	bufDef   []bool
	prog     isa.Program
	names    []string
}

func (m *progModel) cell(a, r, c int) *bool { return &m.cellsDef[(a*m.t.Rows+r)*m.t.Cols+c] }

// cols returns the columns 0..Cols-1 that pass keep.
func (m *progModel) cols(keep func(c int) bool) []int {
	var out []int
	for c := 0; c < m.t.Cols; c++ {
		if keep(c) {
			out = append(out, c)
		}
	}
	return out
}

// subset returns a random non-empty sorted subset of xs.
func subset(rng *rand.Rand, xs []int) []int {
	var out []int
	for _, x := range xs {
		if rng.Intn(2) == 0 {
			out = append(out, x)
		}
	}
	if len(out) == 0 {
		out = []int{xs[rng.Intn(len(xs))]}
	}
	return out
}

func (m *progModel) hostWrite(rng *rand.Rand) {
	a, r := rng.Intn(m.t.Arrays), rng.Intn(m.t.Rows)
	cols := subset(rng, m.cols(func(int) bool { return true }))
	bind := make([]string, len(cols))
	for i, c := range cols {
		bind[i] = fmt.Sprintf("x%d", len(m.names))
		m.names = append(m.names, bind[i])
		*m.cell(a, r, c) = true
	}
	m.prog = append(m.prog, isa.Instruction{
		Kind: isa.KindWrite, Array: a, Cols: cols, Rows: []int{r}, Bindings: bind,
	})
}

// read emits a scouting read (cim) or a plain read of defined cells,
// reporting false when four random row picks found none.
func (m *progModel) read(rng *rand.Rand, cim bool) bool {
	a := rng.Intn(m.t.Arrays)
	for attempt := 0; attempt < 4; attempt++ {
		var rows []int
		if cim {
			k := 2 + rng.Intn(3)
			if k > m.t.Rows {
				k = 2
			}
			rows = rng.Perm(m.t.Rows)[:k]
		} else {
			rows = []int{rng.Intn(m.t.Rows)}
		}
		cols := m.cols(func(c int) bool {
			for _, r := range rows {
				if !*m.cell(a, r, c) {
					return false
				}
			}
			return true
		})
		if len(cols) == 0 {
			continue
		}
		in := isa.Instruction{Kind: isa.KindRead, Array: a, Cols: subset(rng, cols), Rows: rows}
		if cim {
			sort.Ints(rows)
			sense := logic.SenseOps()
			for range in.Cols {
				in.Ops = append(in.Ops, sense[rng.Intn(len(sense))])
			}
		}
		m.prog = append(m.prog, in)
		for _, c := range in.Cols {
			m.bufDef[a*m.t.Cols+c] = true
		}
		return true
	}
	return false
}

func (m *progModel) bufCols(a int) []int {
	return m.cols(func(c int) bool { return m.bufDef[a*m.t.Cols+c] })
}

func (m *progModel) bufWrite(rng *rand.Rand, cross bool) bool {
	src := rng.Intn(m.t.Arrays)
	cols := m.bufCols(src)
	if len(cols) == 0 {
		return false
	}
	cols = subset(rng, cols)
	dst, r := src, rng.Intn(m.t.Rows)
	in := isa.Instruction{Kind: isa.KindWrite, Cols: cols, Rows: []int{r}}
	if cross && m.t.Arrays > 1 {
		for dst == src {
			dst = rng.Intn(m.t.Arrays)
		}
		in.HasSrcArray, in.SrcArray = true, src
	}
	in.Array = dst
	m.prog = append(m.prog, in)
	for _, c := range cols {
		*m.cell(dst, r, c) = true
	}
	return true
}

func (m *progModel) not(rng *rand.Rand) bool {
	a := rng.Intn(m.t.Arrays)
	cols := m.bufCols(a)
	if len(cols) == 0 {
		return false
	}
	m.prog = append(m.prog, isa.Instruction{Kind: isa.KindNot, Array: a, Cols: subset(rng, cols)})
	return true
}

func (m *progModel) shift(rng *rand.Rand) {
	a := rng.Intn(m.t.Arrays)
	in := isa.Instruction{Kind: isa.KindShift, Array: a, ShiftBy: 1 + rng.Intn(2), Right: rng.Intn(2) == 0}
	m.prog = append(m.prog, in)
	isa.ShiftCols(m.bufDef[a*m.t.Cols:(a+1)*m.t.Cols], in.ShiftDist(), false)
}

// randomProgram generates a valid-by-construction program plus its input
// names and the cells left defined for readout.
func randomProgram(rng *rand.Rand, t layout.Target, steps int) (*progModel, []layout.Place) {
	m := &progModel{t: t, cellsDef: make([]bool, t.Arrays*t.Rows*t.Cols), bufDef: make([]bool, t.Arrays*t.Cols)}
	m.hostWrite(rng)
	for len(m.prog) < steps {
		var ok bool
		switch rng.Intn(10) {
		case 0, 1:
		case 2, 3, 4:
			ok = m.read(rng, true)
		case 5:
			ok = m.read(rng, false)
		case 6:
			ok = m.bufWrite(rng, false)
		case 7:
			ok = m.bufWrite(rng, true)
		case 8:
			ok = m.not(rng)
		case 9:
			m.shift(rng)
			ok = true
		}
		if !ok {
			m.hostWrite(rng)
		}
	}
	var defined []layout.Place
	for i, def := range m.cellsDef { // (array, row, col) order
		if def {
			defined = append(defined, layout.Place{Array: i / (t.Rows * t.Cols), Col: i % t.Cols, Row: i / t.Cols % t.Rows})
		}
	}
	return m, defined
}

// faultProgram is a high-decision-count program for sampler statistics: two
// host-written rows and four 8-column XOR scouting reads, 32 sense
// decisions per run.
func faultProgram(t *testing.T) (isa.Program, layout.Target, map[string]bool, map[string]uint64) {
	t.Helper()
	target := layout.Target{Arrays: 1, Rows: 4, Cols: 8}
	const cols = "0,1,2,3,4,5,6,7"
	var names []string
	var text strings.Builder
	for r := 0; r < 2; r++ {
		row := make([]string, 8)
		for c := range row {
			row[c] = fmt.Sprintf("r%dc%d", r, c)
		}
		names = append(names, row...)
		fmt.Fprintf(&text, "Write [0][%s][%d] <%s>\n", cols, r, strings.Join(row, ","))
	}
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&text, "Read [0][%s][0,1] [%s]\n", cols, strings.Repeat("XOR,", 7)+"XOR")
	}
	prog, err := isa.ParseProgram(text.String())
	if err != nil {
		t.Fatal(err)
	}
	scalarIn := make(map[string]bool)
	laneIn := make(map[string]uint64)
	rng := rand.New(rand.NewSource(3))
	for _, n := range names {
		scalarIn[n] = rng.Intn(2) == 1
		laneIn[n] = rng.Uint64()
	}
	return prog, target, scalarIn, laneIn
}
