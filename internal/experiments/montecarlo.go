package experiments

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"

	"sherlock/internal/device"
	"sherlock/internal/dfg"
	"sherlock/internal/layout"
	"sherlock/internal/reliability"
	"sherlock/internal/sim"
)

// MCResult validates the analytical reliability model by Monte-Carlo
// simulation: the mapped program runs many times with fault injection
// (every sense decision flips with its P_DF), and the observed rate of
// runs with at least one fault is compared against the closed-form P_app.
// The output-corruption rate is also measured; it is lower than P_app
// because logical masking absorbs part of the injected faults (e.g. a
// flipped operand of an AND whose other input is 0).
type MCResult struct {
	Tech     device.Technology
	Workload Workload
	Runs     int

	AnalyticalPApp float64
	// ObservedFaultRate is the fraction of runs with >= 1 injected fault;
	// it estimates exactly the event P_app models.
	ObservedFaultRate float64
	// ObservedErrorRate is the fraction of runs whose outputs differ from
	// the golden DFG evaluation.
	ObservedErrorRate float64
	FaultsInjected    int
}

// MaskingFactor is the share of faulty runs whose outputs still came out
// right.
func (m MCResult) MaskingFactor() float64 {
	if m.ObservedFaultRate == 0 {
		return 0
	}
	return 1 - m.ObservedErrorRate/m.ObservedFaultRate
}

// mcShards fixes how many independent random streams a Monte-Carlo
// campaign splits into. The count is a constant — NOT the worker count —
// so the drawn samples, and therefore the merged result, are identical for
// every Parallelism setting. Shard s seeds its stream with seed+s.
const mcShards = 16

// mcCounts accumulates one shard's tallies; shards merge by summation,
// which is order-independent.
type mcCounts struct {
	faultRuns int
	errorRuns int
	faults    int
}

// MonteCarlo runs the fault-injection campaign for a workload on one
// technology (NAND-lowered on STT-MRAM, as in Fig. 6) with fresh random
// inputs every run. The runs are sharded into mcShards deterministic
// random streams that execute on the campaign's worker pool, and each
// shard packs its runs 64-per-word onto a pre-decoded ExecMachine (one
// program pass per 64 runs); shards own fixed lane ranges, so for a given
// seed and run count the result is byte-identical whatever Parallelism is.
func MonteCarlo(r *Runner, w Workload, tech device.Technology, arraySize, runs int, seed int64) (MCResult, error) {
	nand := tech == device.STTMRAM
	res, err := r.Map(w, 1.0, nand, arraySize, false)
	if err != nil {
		return MCResult{}, err
	}
	g, err := r.Graph(w, 1.0, nand)
	if err != nil {
		return MCResult{}, err
	}
	params := device.ParamsFor(tech)
	rep, err := reliability.Assess(res.Program, params)
	if err != nil {
		return MCResult{}, err
	}
	ex, err := r.Exec(res)
	if err != nil {
		return MCResult{}, err
	}
	// Per-shard invariants, hoisted: output places, the golden-input order
	// (g.Inputs() order, matching the RNG draw order of every prior
	// version), and each graph input's executor slot (-1 when the mapped
	// program never consumes it).
	outputs := g.Outputs()
	places := make([]layout.Place, len(outputs))
	for i, o := range outputs {
		p, err := res.OutputPlace(o)
		if err != nil {
			return MCResult{}, err
		}
		places[i] = p
	}
	names := g.InputNames()
	slots := make([]int, len(names))
	for i, nm := range names {
		s, ok := ex.Slot(nm)
		if !ok {
			s = -1
		}
		slots[i] = s
	}

	shards := mcShards
	if runs < shards {
		shards = runs
	}
	counts := make([]mcCounts, shards)
	err = r.runCells(shards, func(s int) error {
		// Even split; the first runs%shards shards take one extra run.
		shardRuns := runs / shards
		if s < runs%shards {
			shardRuns++
		}
		c, err := mcShard(ex, g, places, slots, params, rand.New(rand.NewSource(seed+int64(s))), shardRuns)
		if err != nil {
			return err
		}
		counts[s] = c
		return nil
	})
	if err != nil {
		return MCResult{}, err
	}

	out := MCResult{Tech: tech, Workload: w, Runs: runs, AnalyticalPApp: rep.PApp}
	for _, c := range counts {
		out.ObservedFaultRate += float64(c.faultRuns)
		out.ObservedErrorRate += float64(c.errorRuns)
		out.FaultsInjected += c.faults
	}
	out.ObservedFaultRate /= float64(runs)
	out.ObservedErrorRate /= float64(runs)
	return out, nil
}

// mcShard executes one shard's fault-injected runs word-parallel on a
// private pre-decoded executor and RNG stream: up to sim.WordLanes (64)
// runs pack into the bit-lanes of one micro-op pass over the shared Exec,
// fault injection draws from the geometric-skip sampler (one RNG
// consultation per expected flip instead of one per sense decision), and
// the golden reference evaluates lane-wise through an allocation-free
// dfg.WordEvaluator. The group size stays at 64 runs and inputs draw
// run-major in g.Inputs() order with one Int63 per group — the exact RNG
// consumption of the original interpreting shards, so tallies reproduce
// earlier results and stay deterministic whatever the campaign's worker
// count.
func mcShard(ex *sim.Exec, g *dfg.Graph, places []layout.Place, slots []int, params device.Params, rng *rand.Rand, runs int) (mcCounts, error) {
	var c mcCounts
	ev := dfg.NewWordEvaluator(g)
	m := ex.NewMachine(1)
	in := m.InputBlock()
	goldenIn := make([]uint64, len(slots))
	for start := 0; start < runs; start += sim.WordLanes {
		n := min(sim.WordLanes, runs-start)
		// Lane l is run start+l; inputs draw run-major, matching the
		// original interpreting shards' per-run draw order. Reset clears
		// the input block.
		m.Reset(n)
		clear(goldenIn)
		for l := 0; l < n; l++ {
			for i, s := range slots {
				if rng.Intn(2) == 1 {
					goldenIn[i] |= uint64(1) << uint(l)
					if s >= 0 {
						in[s] |= uint64(1) << uint(l)
					}
				}
			}
		}
		golden := ev.Eval(goldenIn)
		m.EnableFaultInjection(params, rng.Int63())
		if err := m.Run(in); err != nil {
			return mcCounts{}, err
		}
		for l := 0; l < n; l++ {
			if f := m.FaultCount(l); f > 0 {
				c.faultRuns++
				c.faults += f
			}
		}
		var errMask uint64
		mask := m.MaskWord(0)
		for oi, p := range places {
			w, err := m.ReadOutWord(p, 0)
			if err != nil {
				return mcCounts{}, err
			}
			errMask |= (w ^ golden[oi]) & mask
		}
		c.errorRuns += bits.OnesCount64(errMask)
	}
	return c, nil
}

// RenderMC prints the validation rows.
func RenderMC(rows []MCResult) string {
	var sb strings.Builder
	sb.WriteString("Monte-Carlo validation of the analytical P_app model\n")
	sb.WriteString(fmt.Sprintf("%-10s %-11s %6s %12s %12s %12s %9s\n",
		"Tech", "Benchmark", "Runs", "P_app", "P(fault)", "P(error)", "masking"))
	for _, m := range rows {
		sb.WriteString(fmt.Sprintf("%-10s %-11s %6d %12.3e %12.3e %12.3e %8.1f%%\n",
			m.Tech, m.Workload, m.Runs, m.AnalyticalPApp,
			m.ObservedFaultRate, m.ObservedErrorRate, 100*m.MaskingFactor()))
	}
	return sb.String()
}
