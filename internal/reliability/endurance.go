package reliability

import (
	"fmt"
	"sort"

	"sherlock/internal/device"
	"sherlock/internal/isa"
	"sherlock/internal/layout"
)

// NVM cells wear out: each programming pulse degrades the cell, and
// technologies tolerate a bounded number of writes (~1e6 for PCM up to
// ~1e12+ for ReRAM/STT-MRAM). A mapping decides which physical cells absorb
// the kernel's intermediate-result writes, so two schedules with identical
// latency can differ by orders of magnitude in array lifetime. WearReport
// quantifies that: the write pressure per cell for one program execution.
type WearReport struct {
	TotalWrites int
	CellsUsed   int
	// MaxWritesPerCell is the hottest cell's write count in one execution.
	MaxWritesPerCell int
	// MeanWritesPerCell averages over touched cells.
	MeanWritesPerCell float64
	// HotCells lists the most-written cells, hottest first (up to 8).
	HotCells []CellWear
}

// CellWear is one cell's write count.
type CellWear struct {
	Place  layout.Place
	Writes int
}

// LifetimeExecutions estimates how many kernel executions the array
// endures before the hottest cell exceeds the technology's write
// endurance.
func (w WearReport) LifetimeExecutions(enduranceWrites float64) float64 {
	if w.MaxWritesPerCell == 0 {
		return 0
	}
	return enduranceWrites / float64(w.MaxWritesPerCell)
}

// AssessWear tallies per-cell write pressure for one program execution.
func AssessWear(p isa.Program) (WearReport, error) {
	writes := make(map[layout.Place]int)
	total := 0
	for i, in := range p {
		if err := in.Validate(); err != nil {
			return WearReport{}, fmt.Errorf("reliability: instruction %d (%s): %w", i, in, err)
		}
		if in.Kind != isa.KindWrite {
			continue
		}
		for _, c := range in.Cols {
			writes[layout.Place{Array: in.Array, Col: c, Row: in.Rows[0]}]++
			total++
		}
	}
	rep := WearReport{TotalWrites: total, CellsUsed: len(writes)}
	if len(writes) == 0 {
		return rep, nil
	}
	cells := make([]CellWear, 0, len(writes))
	for pl, n := range writes { //sherlock:allow rangemap (cells are sorted below)
		cells = append(cells, CellWear{Place: pl, Writes: n})
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Writes != cells[j].Writes {
			return cells[i].Writes > cells[j].Writes
		}
		pi, pj := cells[i].Place, cells[j].Place
		if pi.Array != pj.Array {
			return pi.Array < pj.Array
		}
		if pi.Col != pj.Col {
			return pi.Col < pj.Col
		}
		return pi.Row < pj.Row
	})
	rep.MaxWritesPerCell = cells[0].Writes
	rep.MeanWritesPerCell = float64(total) / float64(len(writes))
	if len(cells) > 8 {
		cells = cells[:8]
	}
	rep.HotCells = cells
	return rep, nil
}

// EnduranceWrites returns a representative write-endurance budget per
// technology (programming cycles before a cell degrades beyond use):
// STT-MRAM is effectively unlimited, filamentary ReRAM sustains ~1e9 SET/
// RESET cycles, PCM wears out fastest.
func EnduranceWrites(tech device.Technology) float64 {
	switch tech {
	case device.STTMRAM:
		return 1e15
	case device.ReRAM:
		return 1e9
	case device.PCM:
		return 1e7
	}
	return 1e9
}
