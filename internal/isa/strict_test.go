package isa

import (
	"testing"

	"sherlock/internal/layout"
)

// TestShiftColsMatchesReference checks the in-place move-and-kill rule
// against its definition, new[c] = old[c-d] inside the buffer and kill
// outside, for every distance including ones past the buffer width.
func TestShiftColsMatchesReference(t *testing.T) {
	const n = 6
	for d := -n - 2; d <= n+2; d++ {
		region := make([]int, n)
		for c := range region {
			region[c] = c + 1
		}
		ShiftCols(region, d, -1)
		for c := 0; c < n; c++ {
			want := -1
			if s := c - d; s >= 0 && s < n {
				want = s + 1
			}
			if region[c] != want {
				t.Fatalf("d=%d: column %d = %d, want %d (got %v)", d, c, region[c], want, region)
			}
		}
	}
}

// stopAll is a visitor that stops at the first fault and ignores events.
type stopAll struct{}

func (stopAll) Fault(StrictError) bool            { return false }
func (stopAll) Instr(int, *Instruction)           {}
func (stopAll) Read(int, *Instruction, int, bool) {}
func (stopAll) Write(int, *Instruction, int, int) {}
func (stopAll) Not(int, *Instruction, int)        {}

// TestWalkerShiftAllocatesNothing pins the in-place shift: shifts add no
// allocations to a walk.
func TestWalkerShiftAllocatesNothing(t *testing.T) {
	target := layout.Target{Arrays: 1, Rows: 4, Cols: 8}
	walkAllocs := func(text string) float64 {
		p, err := ParseProgram(text)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			w, err := NewWalker(p, target)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Run(stopAll{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := walkAllocs("Write [0][0][0] <x>\nRead [0][0][0]\nWrite [0][0][1]")
	shifted := walkAllocs("Write [0][0][0] <x>\nRead [0][0][0]\nShift [0] R[1]\nShift [0] R[2]\nShift [0] L[3]\nWrite [0][0][1]")
	if shifted != base {
		t.Fatalf("walk with shifts allocated %.0f times, without %.0f; shifts must move state in place", shifted, base)
	}
}
