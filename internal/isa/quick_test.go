package isa

import (
	"math/rand"
	"sort"
	"testing"

	"sherlock/internal/logic"
)

// randomInstruction builds a random *valid* instruction.
func randomInstruction(rng *rand.Rand) Instruction {
	cols := randomSortedUnique(rng, 1+rng.Intn(5), 64)
	switch rng.Intn(4) {
	case 0: // plain or CIM read
		rows := randomSortedUnique(rng, 1+rng.Intn(4), 128)
		in := Instruction{Kind: KindRead, Array: rng.Intn(4), Cols: cols, Rows: rows}
		if len(rows) >= 2 {
			senses := logic.SenseOps()
			in.Ops = make([]logic.Op, len(cols))
			for i := range in.Ops {
				in.Ops[i] = senses[rng.Intn(len(senses))]
			}
		}
		return in
	case 1: // write (host, local, or cross-array)
		in := Instruction{Kind: KindWrite, Array: rng.Intn(4), Cols: cols, Rows: []int{rng.Intn(128)}}
		switch rng.Intn(3) {
		case 0:
			in.Bindings = make([]string, len(cols))
			for i := range in.Bindings {
				in.Bindings[i] = "v" + string(rune('a'+rng.Intn(26)))
			}
		case 1:
			in.HasSrcArray = true
			in.SrcArray = in.Array + 1
		}
		return in
	case 2:
		return Instruction{Kind: KindShift, Array: rng.Intn(4), Right: rng.Intn(2) == 0, ShiftBy: 1 + rng.Intn(32)}
	default:
		return Instruction{Kind: KindNot, Array: rng.Intn(4), Cols: cols}
	}
}

func randomSortedUnique(rng *rand.Rand, n, max int) []int {
	seen := map[int]bool{}
	for len(seen) < n {
		seen[rng.Intn(max)] = true
	}
	out := make([]int, 0, n)
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Property: every valid instruction round-trips through its textual form.
func TestQuickInstructionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		in := randomInstruction(rng)
		if err := in.Validate(); err != nil {
			t.Fatalf("generator produced invalid instruction: %v", err)
		}
		parsed, err := Parse(in.String())
		if err != nil {
			t.Fatalf("Parse(%q): %v", in.String(), err)
		}
		if parsed.String() != in.String() {
			t.Fatalf("round trip: %q -> %q", in.String(), parsed.String())
		}
	}
}

// Property: a program's stats are invariant under print/parse.
func TestQuickProgramStatsInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		var p Program
		for i := 0; i < 20; i++ {
			p = append(p, randomInstruction(rng))
		}
		p2, err := ParseProgram(p.String())
		if err != nil {
			t.Fatal(err)
		}
		a, b := p.ComputeStats(), p2.ComputeStats()
		if a.Total != b.Total || a.CIMReads != b.CIMReads || a.HostWrites != b.HostWrites ||
			a.Shifts != b.Shifts || a.Nots != b.Nots || a.MaxRows != b.MaxRows {
			t.Fatalf("stats changed across round trip: %+v vs %+v", a, b)
		}
		for class, n := range a.SenseEvents {
			if b.SenseEvents[class] != n {
				t.Fatalf("sense class %v changed", class)
			}
		}
	}
}

// Property: AppendAccessIDs never returns a resource outside the
// instruction's own arrays, and every written cell matches the
// instruction's row/cols.
func TestQuickAccessesWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	s := testSpace
	bufs := s.Arrays * s.BufCols
	for i := 0; i < 300; i++ {
		in := randomInstruction(rng)
		reads, writes := in.AppendAccessIDs(s, nil, nil)
		valid := map[int]bool{in.Array: true}
		if in.HasSrcArray {
			valid[in.SrcArray] = true
		}
		for _, id := range append(reads, writes...) {
			if id < 0 || int(id) >= s.Size() {
				t.Fatalf("%s: ID %d outside space of %d", in, id, s.Size())
			}
			array := int(id) / s.BufCols
			if int(id) >= bufs {
				array = (int(id) - bufs) / (s.BufCols * s.Rows)
			}
			if !valid[array] {
				t.Fatalf("%s touches foreign array %d", in, array)
			}
		}
		if in.Kind == KindWrite {
			for j, w := range writes {
				if w != s.CellID(in.Array, in.Cols[j], in.Rows[0]) {
					t.Fatalf("%s writes unexpected resource %d", in, w)
				}
			}
		}
	}
}
