package sim

import (
	"fmt"
	"io"

	"sherlock/internal/arraymodel"
	"sherlock/internal/isa"
)

// MeasureParallel accounts the program under the multi-array execution
// model: each array is an independent execution unit with its own command
// sequencer, so instructions on different arrays overlap as long as their
// data dependencies allow. This exposes the subarray-level parallelism the
// paper's target system provides (Sec. 2.1). The model is a list schedule:
//
//   - an instruction starts when its array is free, its resource hazards
//     (RAW/WAR/WAW over cells and row-buffer bits) are resolved, and — for
//     host writes and cross-array writes — the shared bus is free;
//   - total latency is the makespan; energy is unchanged from Measure.
//
// Program order is respected per array; across arrays only true
// dependences serialize.
func MeasureParallel(p isa.Program, m *arraymodel.CostModel) (Cost, error) {
	_, cost, err := Schedule(p, m)
	return cost, err
}

// Event is one instruction's slot in the parallel schedule.
type Event struct {
	Index       int
	Instruction isa.Instruction
	StartNS     float64
	FinishNS    float64
}

// Schedule computes the parallel execution timeline (see MeasureParallel)
// and returns the per-instruction events alongside the cost.
func Schedule(p isa.Program, m *arraymodel.CostModel) ([]Event, Cost, error) {
	serial, err := Measure(p, m)
	if err != nil {
		return nil, Cost{}, err
	}
	space := p.ResourceSpace()

	arrayFree := make([]float64, space.Arrays)
	busFree := 0.0
	// Hazard state lives in flat arrays indexed by dense resource ID; the
	// zero value means "never touched", matching the map defaults the model
	// used before.
	lastWriter := make([]float64, space.Size())  // finish time of last writer
	lastReaders := make([]float64, space.Size()) // latest finish among readers
	var readBuf, writeBuf []int32

	events := make([]Event, 0, len(p))
	makespan := 0.0
	for i, in := range p {
		lat := instrLatency(in, m)
		reads, writes := in.AppendAccessIDs(space, readBuf[:0], writeBuf[:0])
		readBuf, writeBuf = reads, writes

		start := arrayFree[in.Array]
		if in.HasSrcArray {
			if t := arrayFree[in.SrcArray]; t > start {
				start = t
			}
		}
		usesBus := in.IsHostWrite() || in.HasSrcArray
		if usesBus && busFree > start {
			start = busFree
		}
		for _, r := range reads {
			if t := lastWriter[r]; t > start {
				start = t // RAW
			}
		}
		for _, r := range writes {
			if t := lastWriter[r]; t > start {
				start = t // WAW
			}
			if t := lastReaders[r]; t > start {
				start = t // WAR
			}
		}
		finish := start + lat
		arrayFree[in.Array] = finish
		if in.HasSrcArray {
			arrayFree[in.SrcArray] = finish
		}
		if usesBus {
			busFree = finish
		}
		for _, r := range reads {
			if finish > lastReaders[r] {
				lastReaders[r] = finish
			}
		}
		for _, r := range writes {
			lastWriter[r] = finish
		}
		if finish > makespan {
			makespan = finish
		}
		events = append(events, Event{Index: i, Instruction: in, StartNS: start, FinishNS: finish})
	}
	cost := serial
	cost.LatencyNS = makespan
	return events, cost, nil
}

// WriteTimelineCSV renders the schedule as CSV (index, array, kind, start,
// finish, instruction) for external visualization.
func WriteTimelineCSV(w io.Writer, events []Event) error {
	if _, err := io.WriteString(w, "index,array,kind,start_ns,finish_ns,instruction\n"); err != nil {
		return err
	}
	for _, e := range events {
		line := fmt.Sprintf("%d,%d,%s,%.3f,%.3f,%q\n",
			e.Index, e.Instruction.Array, e.Instruction.Kind, e.StartNS, e.FinishNS, e.Instruction.String())
		if _, err := io.WriteString(w, line); err != nil {
			return err
		}
	}
	return nil
}
